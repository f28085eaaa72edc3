package dio

import (
	"bufio"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dio/internal/server"
)

// flagTableHeader opens README.md's one table of dio-server flags.
const flagTableHeader = "| `dio-server` flag | default | meaning |"

// flagRow is one row of README.md's dio-server flag table.
type flagRow struct {
	line          int
	name, defText string
}

// readmeFlagRows returns the rows of README.md's dio-server flag table in
// order: the flag name from the first column and the default from the
// second, with its backquotes removed and `""` read as the empty string.
func readmeFlagRows(t *testing.T) []flagRow {
	t.Helper()
	f, err := os.Open("README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []flagRow
	tables := 0
	inTable := false
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == flagTableHeader {
			tables++
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		if !strings.HasPrefix(text, "|") {
			inTable = false
			continue
		}
		if strings.HasPrefix(text, "|---") {
			continue
		}
		cells := strings.Split(strings.TrimPrefix(text, "| "), " | ")
		name, ok := strings.CutPrefix(cells[0], "`-")
		if !ok || !strings.HasSuffix(name, "`") || len(cells) < 3 {
			t.Errorf("README.md:%d: want a row \"| `-name` | `default` | meaning |\", got %q", line, text)
			continue
		}
		def := strings.Trim(cells[1], "`")
		if def == `""` {
			def = ""
		}
		rows = append(rows, flagRow{line: line, name: strings.TrimSuffix(name, "`"), defText: def})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if tables != 1 {
		t.Fatalf("README.md has %d tables headed %q, want 1", tables, flagTableHeader)
	}
	return rows
}

// TestServerFlagTable keeps README.md's dio-server flag table and the
// FlagSet server.Config.Flags registers the same, in both directions: a
// flag without a row fails, and so does a row without a flag. Each row's
// default must parse, through the flag itself, to DefaultConfig's value,
// so "2h" matches 2h0m0s.
func TestServerFlagTable(t *testing.T) {
	cfg := server.DefaultConfig()
	fs := flag.NewFlagSet("dio-server", flag.ContinueOnError)
	cfg.Flags(fs)
	documented := map[string]bool{}
	for _, row := range readmeFlagRows(t) {
		if documented[row.name] {
			t.Errorf("README.md:%d documents -%s twice", row.line, row.name)
		}
		documented[row.name] = true
		f := fs.Lookup(row.name)
		if f == nil {
			t.Errorf("README.md:%d documents -%s, which server.Config.Flags does not register", row.line, row.name)
			continue
		}
		// A fresh FlagSet per row, so one row's Set cannot hide another's.
		got := server.DefaultConfig()
		one := flag.NewFlagSet("dio-server", flag.ContinueOnError)
		got.Flags(one)
		if err := one.Set(row.name, row.defText); err != nil {
			t.Errorf("README.md:%d: -%s default %q does not parse: %v", row.line, row.name, row.defText, err)
		} else if !reflect.DeepEqual(got, server.DefaultConfig()) {
			t.Errorf("README.md:%d documents -%s's default as %q; the flag's default is %q",
				row.line, row.name, row.defText, f.DefValue)
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("server.Config.Flags registers -%s, which README.md's flag table lacks", f.Name)
		}
	})
	t.Logf("%d dio-server flags", len(documented))
}

// commandLineFiles are the files whose dio-server command lines
// TestServerCommandLines parses.
var commandLineFiles = []string{"README.md", "DESIGN.md", "scripts/*.sh", "cmd/dio-server/main.go"}

// serverCommandLine matches a dio-server invocation with flags: the
// command, as a path or a bare name, then its arguments up to the end of
// the line or of the inline code span holding it.
var serverCommandLine = regexp.MustCompile("(?:^|[\\s`/])dio-server[ \\t]+(-[^`\\n]*)")

// serverArgs splits what follows dio-server into its arguments. Quotes are
// dropped, since no documented argument holds a space, and the first
// redirection, pipe, background or separator token ends the command.
func serverArgs(s string) []string {
	var args []string
	for _, f := range strings.Fields(s) {
		if strings.HasPrefix(strings.TrimLeft(f, "0123456789"), ">") || strings.ContainsAny(f[:1], "<|&;#") {
			break
		}
		args = append(args, strings.Trim(f, `"'`))
	}
	return args
}

// TestServerCommandLines parses every dio-server command line in the docs
// and scripts with the flags server.Config registers, so a documented
// invocation of a removed or renamed flag fails here instead of at a
// reader's terminal. Shell continuation lines are joined first.
func TestServerCommandLines(t *testing.T) {
	var files []string
	for _, pattern := range commandLineFiles {
		matches, err := filepath.Glob(pattern)
		if err != nil || len(matches) == 0 {
			t.Fatalf("%s matches no file (%v)", pattern, err)
		}
		files = append(files, matches...)
	}
	found := 0
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(src), "\\\n", " ")
		for _, m := range serverCommandLine.FindAllStringSubmatch(text, -1) {
			found++
			args := serverArgs(m[1])
			cfg := server.DefaultConfig()
			fs := flag.NewFlagSet("dio-server", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			cfg.Flags(fs)
			if err := fs.Parse(args); err != nil {
				t.Errorf("%s: dio-server %s: %v", name, strings.Join(args, " "), err)
			} else if fs.NArg() > 0 {
				t.Errorf("%s: dio-server %s: arguments %q are not flags", name, strings.Join(args, " "), fs.Args())
			}
		}
	}
	if found == 0 {
		t.Fatalf("found no dio-server command line in %v", files)
	}
	t.Logf("%d dio-server command lines", found)
}
