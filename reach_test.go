package dio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// unreachedFile lists the exported names under internal/ that no non-test
// code reaches, one "pkg: Name  # reason" per line. The scan below must
// report exactly this list: a new dead export fails, and so does a line
// whose name is gone or has found a caller.
const unreachedFile = "testdata/unreached.txt"

// reachPkg is one type-checked package: its non-test files and what
// go/types made of them.
type reachPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
}

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goCommand finds the go tool: the one of the toolchain that built the
// test, else the first on PATH.
func goCommand() (string, error) {
	for _, name := range []string{filepath.Join(runtime.GOROOT(), "bin", "go"), "go"} {
		if p, err := exec.LookPath(name); err == nil {
			return p, nil
		}
	}
	return "", errors.New("no go command in GOROOT/bin or on PATH: the reach scan lists packages and standard-library export data with it")
}

// goList runs `go list -json args...` in dir and decodes its stream.
func goList(dir string, args ...string) ([]listedPackage, error) {
	gocmd, err := goCommand()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(gocmd, append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// stdImporter reads standard-library packages from the compiler's export
// data, listed once by one `go list -deps -export` of the given paths.
// It remembers every package it has read, so each is loaded once.
func stdImporter(fset *token.FileSet, dir string, paths []string) (types.Importer, error) {
	listed, err := goList(dir, append([]string{"-deps", "-export"}, paths...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	}), nil
}

// srcImporter hands out the packages already type-checked from source and
// falls back to export data for the standard library.
type srcImporter struct {
	src map[string]*types.Package
	std types.Importer
}

func (imp srcImporter) Import(path string) (*types.Package, error) {
	if p := imp.src[path]; p != nil {
		return p, nil
	}
	return imp.std.Import(path)
}

// checkPackage type-checks one package from its parsed files.
func checkPackage(fset *token.FileSet, imp srcImporter, path string, files []*ast.File) (*reachPkg, error) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	imp.src[path] = pkg
	return &reachPkg{path: path, files: files, info: info}, nil
}

// loadRepo type-checks every non-test package of dio/... and dio/bench
// from source, in the dependency order `go list -deps` prints, sharing one
// importer, and returns that importer's standard-library half too. It
// lists from bench/, whose module replaces dio with the root, so one
// listing spans both modules.
func loadRepo(root string) ([]*reachPkg, types.Importer, error) {
	dir := filepath.Join(root, "bench")
	listed, err := goList(dir, "-deps", ".", "dio/...")
	if err != nil {
		return nil, nil, err
	}
	var std []string
	for _, p := range listed {
		if p.Standard {
			std = append(std, p.ImportPath)
		}
	}
	fset := token.NewFileSet()
	stdImp, err := stdImporter(fset, dir, std)
	if err != nil {
		return nil, nil, err
	}
	imp := srcImporter{src: map[string]*types.Package{}, std: stdImp}
	var pkgs []*reachPkg
	for _, p := range listed {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		rp, err := checkPackage(fset, imp, p.ImportPath, files)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, rp)
	}
	return pkgs, stdImp, nil
}

// stdCalledInterfaces are the standard-library interfaces whose methods
// the standard library itself calls by name (fmt prints a Stringer or
// error, sort.Sort swaps, errors.Is asks Is, net/http serves a Handler,
// encoding/json marshals), so a dio type that satisfies one is reached
// through code the scan does not read. Those not imported anywhere are
// skipped.
func stdCalledInterfaces(imp types.Importer) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range []string{"fmt.Stringer", "sort.Interface", "io.Reader", "io.Writer", "io.Closer", "net/http.Handler", "encoding/json.Marshaler"} {
		dot := strings.LastIndex(name, ".")
		pkg, err := imp.Import(name[:dot])
		if err != nil {
			continue
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(name[dot+1:]).Type().Underlying().(*types.Interface))
	}
	errType := types.Universe.Lookup("error").Type()
	is := types.NewFunc(token.NoPos, nil, "Is", types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)),
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.Bool])), false))
	return append(ifaces, types.NewInterfaceType([]*types.Func{is}, nil).Complete())
}

// objKey names a package-level object or a method by package path,
// receiver and name, looking through instantiations to the generic
// declaration. Other objects (locals, fields, the universe) get "".
func objKey(obj types.Object) string {
	fn, isFunc := obj.(*types.Func)
	if obj.Pkg() == nil || !isFunc && obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	key := obj.Pkg().Path() + ": "
	if isFunc {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named := recvNamed(recv.Type()); named != nil {
				key += named.Obj().Name() + "."
			} else {
				key += "?."
			}
		}
	}
	return key + obj.Name()
}

// recvNamed returns the named type of a receiver, through a pointer, or
// nil for an interface literal.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// interfaceOf returns the interface a method is declared in, or nil for a
// concrete method.
func interfaceOf(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

// reachScan reports, as "pkg: Name" keys sorted, the exported names
// declared under dio/internal/ that no other code in pkgs reaches, and how
// many such names it looked at. pkgs must have been type-checked with one
// shared importer.
//
// A name is reached by a use outside its own declaration: a method calling
// itself, or a type named only in its own receivers, does not count. A
// concrete method is also reached when its type satisfies an interface
// whose same-named method some package calls, or one of the standard
// library's stdCalledInterfaces; a generic type satisfies nothing here, so
// its methods must be called (through any instantiation). An exported
// method declared in an interface under internal/ is reported as its own
// key, "pkg: Iface.Method", when nothing calls it through that interface.
func reachScan(pkgs []*reachPkg, stdCalled []*types.Interface) (unreached []string, declared int) {
	used := map[string]bool{}
	called := map[string][]*types.Interface{} // method name -> interfaces it is called through
	use := func(info *types.Info, n ast.Node, self map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || self[obj] {
				return true
			}
			used[objKey(obj)] = true
			if fn, ok := obj.(*types.Func); ok {
				if iface := interfaceOf(fn); iface != nil {
					called[fn.Name()] = append(called[fn.Name()], iface)
				}
			}
			return true
		})
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					self := map[types.Object]bool{p.info.Defs[d.Name]: true}
					use(p.info, d.Type, self)
					if d.Body != nil {
						use(p.info, d.Body, self)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						self := map[types.Object]bool{}
						switch s := spec.(type) {
						case *ast.TypeSpec:
							self[p.info.Defs[s.Name]] = true
						case *ast.ValueSpec:
							for _, id := range s.Names {
								self[p.info.Defs[id]] = true
							}
						}
						use(p.info, spec, self)
					}
				}
			}
		}
	}
	for _, iface := range stdCalled {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			called[name] = append(called[name], iface)
		}
	}
	satisfiesCalled := func(fn *types.Func) bool {
		named := recvNamed(fn.Type().(*types.Signature).Recv().Type())
		if named == nil || named.TypeParams().Len() > 0 {
			return false
		}
		for _, iface := range called[fn.Name()] {
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}
	report := func(obj types.Object, reached bool) {
		if obj == nil || !obj.Exported() {
			return
		}
		declared++
		if !reached {
			unreached = append(unreached, strings.TrimPrefix(objKey(obj), "dio/internal/"))
		}
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, "dio/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					reached := used[objKey(obj)]
					if d.Recv != nil && !reached {
						reached = satisfiesCalled(obj.(*types.Func))
					}
					report(obj, reached)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							report(obj, used[objKey(obj)])
							if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
								for i := 0; i < iface.NumExplicitMethods(); i++ {
									m := iface.ExplicitMethod(i)
									report(m, used[objKey(m)])
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								obj := p.info.Defs[id]
								report(obj, used[objKey(obj)])
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(unreached)
	return unreached, declared
}

// TestUnreachedExports is the reachability ratchet: code that no cmd/
// main, example, bench/ file or other package reaches gets deleted, not
// kept for later.
func TestUnreachedExports(t *testing.T) {
	start := time.Now()
	pkgs, std, err := loadRepo(".")
	if err != nil {
		t.Fatal(err)
	}
	got, declared := reachScan(pkgs, stdCalledInterfaces(std))
	t.Logf("type-aware reach scan of %d packages: %v", len(pkgs), time.Since(start).Round(time.Millisecond))
	f, err := os.Open(unreachedFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, reason, ok := strings.Cut(text, "#")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %q has no reason; want \"pkg: Name  # reason\"", unreachedFile, line, text)
		}
		allowed[strings.TrimSpace(key)] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, key := range got {
		if !allowed[key] {
			t.Errorf("%s is exported and no non-test code reaches it: call it, unexport it or delete it", key)
		}
		delete(allowed, key)
	}
	for key := range allowed {
		t.Errorf("%s: %q is listed but the scan no longer reports it; delete the line", unreachedFile, key)
	}
	t.Logf("%d of %d exported names under internal/ unreached", len(got), declared)
}

// reachFixture is three small packages, in dependency order, that pin the
// scan's rules: b's Store.Put is called by nobody and a's Mem.Reset is
// never called, so both are reported; Mem.Get is reached only through
// the Store.Get that b calls, byLen's Len/Less/Swap only through
// sort.Sort, and Box.Value only through an instantiation.
var reachFixture = []struct{ path, src string }{
	{"dio/internal/a", `package a

import "sort"

type Mem struct{ m map[string]int }

func NewMem() *Mem                   { return &Mem{m: map[string]int{}} }
func (s *Mem) Get(k string) int      { return s.m[k] }
func (s *Mem) Put(k string, v int)   { s.m[k] = v }
func (s *Mem) Reset()                { s.m = map[string]int{}; s.Reset() }

type byLen []string

func (x byLen) Len() int           { return len(x) }
func (x byLen) Less(i, j int) bool { return len(x[i]) < len(x[j]) }
func (x byLen) Swap(i, j int)      { x[i], x[j] = x[j], x[i] }

func Sorted(xs []string) []string { sort.Sort(byLen(xs)); return xs }

type Box[T any] struct{ v T }

func (b *Box[T]) Value() T { return b.v }
`},
	{"dio/internal/b", `package b

type Store interface {
	Get(k string) int
	Put(k string, v int)
}

func Lookup(s Store, k string) int { return s.Get(k) }
`},
	{"dio/cmd/c", `package c

import (
	"dio/internal/a"
	"dio/internal/b"
)

func Run() int {
	m := a.NewMem()
	m.Put("k", 1)
	box := &a.Box[int]{}
	return b.Lookup(m, "k") + box.Value() + len(a.Sorted(nil))
}
`},
}

func TestReachScanFixture(t *testing.T) {
	fset := token.NewFileSet()
	std, err := stdImporter(fset, ".", []string{"sort"})
	if err != nil {
		t.Fatal(err)
	}
	imp := srcImporter{src: map[string]*types.Package{}, std: std}
	var pkgs []*reachPkg
	for _, fx := range reachFixture {
		f, err := parser.ParseFile(fset, fx.path+"/x.go", fx.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		p, err := checkPackage(fset, imp, fx.path, []*ast.File{f})
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	got, declared := reachScan(pkgs, stdCalledInterfaces(std))
	if want := []string{"a: Mem.Reset", "b: Store.Put"}; strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("unreached = %q, want %q", got, want)
	}
	if declared != 15 {
		t.Errorf("declared = %d, want 15", declared)
	}
}
