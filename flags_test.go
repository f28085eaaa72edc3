package dio

import (
	"bufio"
	"flag"
	"os"
	"reflect"
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
