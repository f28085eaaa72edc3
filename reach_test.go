package dio

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedFile lists the exported names under internal/ that nothing
// outside tests refers to, one "pkg: Name  # reason" per line. The scan
// below must report exactly this list: a new dead export fails, and so
// does a line whose name is gone or has found a caller.
const unreachedFile = "testdata/unreached.txt"

// scanUnreached parses every non-test .go file under root (bench/ too, so
// nothing the harness compiles against is flagged) and returns the
// exported top-level names and methods declared under internal/ whose
// identifier occurs only where such names are declared. It goes by name
// alone — go/parser, no type information — so a method is reached by any
// use of its name, and one called only through an interface the standard
// library owns (sort, heap) is not.
func scanUnreached(root string) (unreached []string, declared int, err error) {
	type decl struct{ key, name string }
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name[0] == '.' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		rel = filepath.ToSlash(rel)
		if !strings.HasPrefix(rel, "internal/") {
			return nil
		}
		pkg := strings.TrimPrefix(rel, "internal/")
		add := func(prefix string, id *ast.Ident) {
			if id.IsExported() {
				decls = append(decls, decl{pkg + ": " + prefix + id.Name, id.Name})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				prefix := ""
				if d.Recv != nil {
					prefix = recvName(d.Recv.List[0].Type) + "."
				}
				add(prefix, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add("", s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add("", id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	declsByName := map[string]int{}
	for _, d := range decls {
		declsByName[d.name]++
	}
	for _, d := range decls {
		if uses[d.name] == declsByName[d.name] {
			unreached = append(unreached, d.key)
		}
	}
	sort.Strings(unreached)
	return unreached, len(decls), nil
}

// recvName names a method receiver's type, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// TestUnreachedExports is the reachability ratchet: code that no cmd/
// main, example, bench/ file or other package calls gets deleted, not
// kept for later.
func TestUnreachedExports(t *testing.T) {
	got, declared, err := scanUnreached(".")
	if err != nil {
		t.Fatal(err)
	}
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
			t.Errorf("%s is exported and no non-test file refers to it: call it, unexport it or delete it", key)
		}
		delete(allowed, key)
	}
	for key := range allowed {
		t.Errorf("%s: %q is listed but the scan no longer reports it; delete the line", unreachedFile, key)
	}
	t.Logf("%d of %d exported names under internal/ unreached", len(got), declared)
}
