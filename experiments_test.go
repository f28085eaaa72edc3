package dio

import (
	"context"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"dio/internal/benchmark"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated regions from benchmark.Experiments")

const experimentsDoc = "EXPERIMENTS.md"

// marker is one region delimiter: "<!-- generated: NAME -->" or
// "<!-- end NAME -->" on a line of its own.
var marker = regexp.MustCompile(`(?m)^<!-- (generated:|end) ([a-z0-9]+) -->\n`)

// region is one generated region: its name and the byte span
// [start, end) of its text.
type region struct {
	name       string
	start, end int
}

// docRegions returns doc's generated regions in order. Every region must
// open, close before the next opens, and appear once.
func docRegions(doc string) ([]region, error) {
	var regions []region
	seen := make(map[string]bool)
	open := -1 // index in regions of the region not yet closed
	for _, m := range marker.FindAllStringSubmatchIndex(doc, -1) {
		kind, name := doc[m[2]:m[3]], doc[m[4]:m[5]]
		switch {
		case kind == "generated:" && open >= 0:
			return nil, fmt.Errorf("region %s opens inside region %s", name, regions[open].name)
		case kind == "generated:" && seen[name]:
			return nil, fmt.Errorf("region %s appears twice", name)
		case kind == "generated:":
			seen[name] = true
			open = len(regions)
			regions = append(regions, region{name: name, start: m[1]})
		case open < 0 || regions[open].name != name:
			return nil, fmt.Errorf("end %s closes no open region of that name", name)
		default:
			regions[open].end = m[0]
			open = -1
		}
	}
	if open >= 0 {
		return nil, fmt.Errorf("region %s is never closed", regions[open].name)
	}
	return regions, nil
}

// TestExperimentsDoc renders the paper's evaluation over the shared
// environment and compares each section with its generated region of
// EXPERIMENTS.md. A region that differs, is missing, is unknown or
// appears twice fails; -update rewrites the regions' text.
func TestExperimentsDoc(t *testing.T) {
	raw, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	regions, err := docRegions(doc)
	if err != nil {
		t.Fatalf("%s: %v", experimentsDoc, err)
	}
	e := env(t)
	sections, err := benchmark.Experiments(context.Background(),
		benchmark.Env{Catalog: e.cat, DB: e.db, Items: e.items, Retriever: e.retriever})
	if err != nil {
		t.Fatal(err)
	}
	rendered := make(map[string]string)
	for _, s := range sections {
		rendered[s.Name] = s.Text
	}
	var out strings.Builder
	prev := 0
	for _, r := range regions {
		text, ok := rendered[r.name]
		if !ok {
			t.Errorf("%s has region %q, which benchmark.Experiments does not render", experimentsDoc, r.name)
			continue
		}
		delete(rendered, r.name)
		if got := doc[r.start:r.end]; got != text && !*update {
			t.Errorf("region %s of %s differs from the rendering (go test -run TestExperimentsDoc -update . rewrites it):\n%s",
				r.name, experimentsDoc, firstDiff(got, text))
		}
		out.WriteString(doc[prev:r.start])
		out.WriteString(text)
		prev = r.end
	}
	for _, s := range sections {
		if _, missing := rendered[s.Name]; missing {
			t.Errorf("%s has no region %q", experimentsDoc, s.Name)
		}
	}
	out.WriteString(doc[prev:])
	if *update && !t.Failed() {
		if err := os.WriteFile(experimentsDoc, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// firstDiff reports the first line where doc and rendered differ.
func firstDiff(doc, rendered string) string {
	a, b := strings.Split(doc, "\n"), strings.Split(rendered, "\n")
	for i := 0; ; i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			line := func(l []string) string {
				if i < len(l) {
					return l[i]
				}
				return "(end of region)"
			}
			return fmt.Sprintf("line %d\n  doc:      %s\n  rendered: %s", i+1, line(a), line(b))
		}
	}
}
