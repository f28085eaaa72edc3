package vecstore

import "dio/internal/embedding"

// Rescored runs Search and returns how many rows its second pass scored
// in full, 0 when the first pass was the whole scan.
func (f *Flat) Rescored(query embedding.Vector, k int) int {
	_, n := f.search(query, k)
	return n
}
