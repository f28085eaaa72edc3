// Package servecache is the serving-throughput layer in front of the
// copilot pipeline: a sharded LRU answer cache with versioned keys, a
// singleflight group that collapses concurrent identical misses into one
// pipeline execution, and a bounded-concurrency admission gate that sheds
// load gracefully under overload.
//
// The paper evaluates the DIO copilot one question at a time, but real
// operator query workloads are dominated by a small set of recurring
// question shapes (PromCopilot); under production traffic the serial
// pipeline (embed → vector search → two LLM calls → sandbox eval →
// dashboard) must not be re-run for a question answered milliseconds ago.
//
// Invalidation is versioned rather than swept: cache keys fold in the
// domain-specific database's monotonic version (bumped by every expert
// contribution, so the feedback loop takes effect instantly) and a
// quantized TSDB head-timestamp bucket (so time-sensitive answers expire
// once new samples arrive). Stale entries simply stop being addressable
// and age out of the LRU.
//
// The package is intentionally free of pipeline imports — the front is
// generic over the cached value — so core can reuse its LRU for the
// retrieval/embedding cache without an import cycle.
package servecache

import "strings"

// Status classifies how one serving-layer request was satisfied.
type Status int

// Request statuses.
const (
	// StatusBypass: caching was skipped and the pipeline ran.
	StatusBypass Status = iota
	// StatusHit: the answer was served from the cache.
	StatusHit
	// StatusMiss: this request ran the pipeline and filled the cache.
	StatusMiss
	// StatusCoalesced: an identical concurrent miss was already running;
	// this request waited for its result instead of recomputing.
	StatusCoalesced
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusBypass:
		return "bypass"
	case StatusHit:
		return "hit"
	case StatusMiss:
		return "miss"
	case StatusCoalesced:
		return "coalesced"
	}
	return "unknown"
}

// Normalize canonicalises a question for cache keying: lower-cased,
// whitespace-collapsed, with trailing punctuation stripped, so "How many
// PDU sessions?", "how many PDU sessions" and "  How many  PDU sessions? "
// share one cache slot. Normalisation only widens key sharing — the cached
// answer is always a real pipeline answer for some phrasing of the
// question.
func Normalize(q string) string {
	var b strings.Builder
	b.Grow(len(q))
	appendNormalized(&b, q)
	return b.String()
}

// appendNormalized writes Normalize(q) into b. ASCII questions (the hot
// serving path — Key normalizes on every lookup) take a single-pass,
// allocation-free route; anything with multi-byte runes falls back to the
// legacy stdlib pipeline for exact Unicode semantics.
func appendNormalized(b *strings.Builder, q string) {
	for i := 0; i < len(q); i++ {
		if q[i] >= 0x80 {
			qq := strings.ToLower(strings.TrimSpace(q))
			qq = strings.TrimRight(qq, "?!. \t")
			b.WriteString(strings.Join(strings.Fields(qq), " "))
			return
		}
	}
	// Trailing whitespace first (TrimSpace), then trailing punctuation.
	end := len(q)
	for end > 0 && asciiSpace(q[end-1]) {
		end--
	}
	for end > 0 {
		switch q[end-1] {
		case '?', '!', '.', ' ', '\t':
			end--
			continue
		}
		break
	}
	// Lower-case and collapse whitespace runs to single spaces. wrote
	// tracks this call's output only: b may arrive with a key prefix.
	pending, wrote := false, false
	for i := 0; i < end; i++ {
		c := q[i]
		if asciiSpace(c) {
			pending = wrote
			continue
		}
		if pending {
			b.WriteByte(' ')
			pending = false
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
		wrote = true
	}
}

func asciiSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}
