package vecstore

import "dio/internal/embedding"

// Rescored runs Search and returns how many rows it scored in full: the
// k leaders of the first pass and the rows the second pass kept.
func (f *Flat) Rescored(query embedding.Vector, k int) int {
	_, n := f.search(query, k)
	return n
}
