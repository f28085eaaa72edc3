package tsdb

import "sort"

// postings is the store's inverted index: label name → label value → the
// fingerprints of every series carrying that pair. Lists are kept sorted,
// so selection iterates candidates in canonical (fingerprint) order and
// never needs to re-sort. The __name__ entries double as the per-metric
// posting lists.
type postings map[string]map[string][]string

// add indexes one series under every label pair it carries.
func (p postings) add(fp string, ls Labels) {
	for _, l := range ls {
		vals := p[l.Name]
		if vals == nil {
			vals = make(map[string][]string)
			p[l.Name] = vals
		}
		vals[l.Value] = insertSorted(vals[l.Value], fp)
	}
}

// remove drops one series from every posting list it appears in, pruning
// entries left empty (retention truncation deletes whole series).
func (p postings) remove(fp string, ls Labels) {
	for _, l := range ls {
		vals := p[l.Name]
		if vals == nil {
			continue
		}
		lst := removeSorted(vals[l.Value], fp)
		if len(lst) == 0 {
			delete(vals, l.Value)
		} else {
			vals[l.Value] = lst
		}
		if len(vals) == 0 {
			delete(p, l.Name)
		}
	}
}

// get returns the sorted fingerprints of the series carrying name=value.
func (p postings) get(name, value string) []string { return p[name][value] }

// insertSorted inserts key into a sorted slice, keeping it sorted and
// duplicate-free.
func insertSorted(keys []string, key string) []string {
	i := sort.SearchStrings(keys, key)
	if i < len(keys) && keys[i] == key {
		return keys
	}
	keys = append(keys, "")
	copy(keys[i+1:], keys[i:])
	keys[i] = key
	return keys
}

// removeSorted deletes key from a sorted slice, if present.
func removeSorted(keys []string, key string) []string {
	i := sort.SearchStrings(keys, key)
	if i >= len(keys) || keys[i] != key {
		return keys
	}
	return append(keys[:i], keys[i+1:]...)
}
