// Package tsdb implements the labelled in-memory time-series database that
// backs query execution: the stand-in for the Prometheus storage the
// paper's PromQL queries run against. Series are identified by label sets
// (including the reserved __name__ label); samples are (millisecond
// timestamp, float64 value) pairs in ascending time order.
package tsdb

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"
)

// MetricNameLabel is the reserved label holding the metric name, mirroring
// Prometheus conventions.
const MetricNameLabel = "__name__"

// Label is one name/value pair.
type Label struct {
	Name  string
	Value string
}

// Labels is a sorted, duplicate-free label set. Construct with FromMap or
// NewLabels; the zero value is the empty label set.
type Labels []Label

// NewLabels returns a Labels built from pairs, sorted by name. Later
// duplicates override earlier ones.
func NewLabels(pairs ...Label) Labels {
	m := make(map[string]string, len(pairs))
	for _, p := range pairs {
		m[p.Name] = p.Value
	}
	return FromMap(m)
}

// FromMap returns a sorted Labels built from m. Empty values are dropped,
// matching Prometheus semantics where an empty label is an absent label.
func FromMap(m map[string]string) Labels {
	ls := make(Labels, 0, len(m))
	for n, v := range m {
		if v == "" {
			continue
		}
		ls = append(ls, Label{Name: n, Value: v})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls
}

// Map returns the label set as a map.
func (ls Labels) Map() map[string]string {
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Name] = l.Value
	}
	return m
}

// Get returns the value of the named label, or "" if absent.
func (ls Labels) Get(name string) string {
	for _, l := range ls {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Name returns the metric name (the __name__ label).
func (ls Labels) Name() string { return ls.Get(MetricNameLabel) }

// Without returns a copy of ls with the named labels removed.
func (ls Labels) Without(names ...string) Labels {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	out := make(Labels, 0, len(ls))
	for _, l := range ls {
		if !drop[l.Name] {
			out = append(out, l)
		}
	}
	return out
}

// Keep returns a copy of ls retaining only the named labels.
func (ls Labels) Keep(names ...string) Labels {
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		keep[n] = true
	}
	out := make(Labels, 0, len(names))
	for _, l := range ls {
		if keep[l.Name] {
			out = append(out, l)
		}
	}
	return out
}

// With returns a copy of ls with the given label set (added or replaced).
func (ls Labels) With(name, value string) Labels {
	m := ls.Map()
	m[name] = value
	return FromMap(m)
}

// The series key (fingerprint) is every label as name keyValueSep value,
// the labels joined by keyLabelSep. Neither byte occurs in valid UTF-8.
// AppendKey writes the format and cloneFromKey reads it back.
const (
	keyLabelSep = 0xfe
	keyValueSep = 0xff
)

// Key returns a canonical string identity for the label set, usable as a
// map key (series fingerprint).
func (ls Labels) Key() string {
	n := 0
	for _, l := range ls {
		n += len(l.Name) + len(l.Value) + 2
	}
	b := ls.AppendKey(make([]byte, 0, n))
	return unsafe.String(unsafe.SliceData(b), len(b)) // b is never written again
}

// AppendKey appends the bytes of Key to dst and returns the extended
// buffer. Looking a series up with m[string(buf)] on a reused buffer costs
// no allocation; only inserting a new key does.
func (ls Labels) AppendKey(dst []byte) []byte {
	for i, l := range ls {
		if i > 0 {
			dst = append(dst, keyLabelSep)
		}
		dst = append(dst, l.Name...)
		dst = append(dst, keyValueSep)
		dst = append(dst, l.Value...)
	}
	return dst
}

// cloneFromKey returns a copy of ls whose names and values are slices of
// key, which must be ls.Key(): one string and one slice hold the whole
// set, and the copy shares no memory with the caller's buffers.
func (ls Labels) cloneFromKey(key string) Labels {
	out := make(Labels, len(ls))
	pos := 0
	for i, l := range ls {
		if i > 0 {
			pos++ // keyLabelSep
		}
		out[i].Name = key[pos : pos+len(l.Name)]
		pos += len(l.Name) + 1 // keyValueSep
		out[i].Value = key[pos : pos+len(l.Value)]
		pos += len(l.Value)
	}
	return out
}

// String renders the label set in PromQL notation:
// name{label="value",...}.
func (ls Labels) String() string {
	var b strings.Builder
	b.WriteString(ls.Name())
	rest := ls.Without(MetricNameLabel)
	if len(rest) == 0 {
		if b.Len() == 0 {
			return "{}"
		}
		return b.String()
	}
	b.WriteByte('{')
	for i, l := range rest {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}
