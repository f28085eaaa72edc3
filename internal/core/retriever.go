package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dio/internal/catalog"
	"dio/internal/embedding"
	"dio/internal/llm"
	"dio/internal/obs"
	"dio/internal/servecache"
	"dio/internal/vecstore"
)

// defaultRetrievalCacheSize bounds the question→(embedding, top-K docs)
// cache. Operator workloads are dominated by a small set of recurring
// question shapes, so a modest cache absorbs most of the embedding and
// vector-search cost.
const defaultRetrievalCacheSize = 512

// Retriever is the context extractor of §3.2: it embeds the text samples
// of the domain-specific database offline, embeds each user query online,
// and returns the top-K documents by cosine similarity — the curated
// context that fits within the model's prompt budget. It is safe for
// concurrent use: feedback contributions may add documents while live
// traffic retrieves.
type Retriever struct {
	model *embedding.Model

	// mu guards docs and the index against concurrent feedback additions;
	// retrieval holds the read lock, AddDocument the write lock.
	mu    sync.RWMutex
	index vecstore.Index
	docs  map[string]indexedDoc

	// version counts indexed documents over time. Retrieval-cache entries
	// record the version they were computed at and are ignored once it
	// moves, so a contribution is retrievable by the very next question.
	version atomic.Uint64

	// cache memoises question → (query vector, top-K scored docs). It
	// depends only on the indexed corpus (not on TSDB contents), so it
	// survives answer-cache expiry.
	cache   *servecache.LRU[retrievalEntry]
	lookups *obs.CounterVec // dio_cache_requests_total{cache="retrieval",outcome}; nil w/o Instrument
}

// promptDocTokens is how much of a description enters a prompt: its
// leading tokens are enough to disambiguate, while keeping per-query token
// cost near the paper's (§4.2.5).
const promptDocTokens = 24

// indexedDoc is a document as the retriever holds it: the document, and
// the form of it a prompt carries, clipped once when it is indexed.
type indexedDoc struct {
	catalog.Document
	clipped llm.ContextDoc
}

func indexDoc(d catalog.Document) indexedDoc {
	return indexedDoc{d, llm.ContextDoc{ID: d.ID, Text: llm.TruncateToTokens(d.Text, promptDocTokens)}}
}

// scored returns the document as a retrieval hit.
func (d indexedDoc) scored(score float64) ScoredDoc {
	return ScoredDoc{Doc: llm.ContextDoc{ID: d.ID, Text: d.Text}, Clipped: d.clipped, Score: score}
}

// retrievalEntry is one cached retrieval: the embedded query vector plus
// the scored top-k result, valid while version matches the retriever's.
type retrievalEntry struct {
	version uint64
	k       int
	vec     embedding.Vector
	scored  []ScoredDoc
}

// NewRetriever indexes the documents of the domain-specific database using
// an embedding model trained on that corpus with the expert lexicon — the
// all-MiniLM-L6-v2 + FAISS role of the paper's implementation.
func NewRetriever(db *catalog.Database, index vecstore.Index) (*Retriever, error) {
	docs := db.Documents()
	corpus := make([]string, len(docs))
	for i, d := range docs {
		corpus[i] = d.Text
	}
	model, vecs := embedding.Train(corpus, embedding.DomainLexicon(), embedding.DefaultOptions())
	if index == nil {
		index = vecstore.NewFlat(model.Dim())
	}
	r := &Retriever{
		model: model, index: index,
		docs:  make(map[string]indexedDoc, len(docs)),
		cache: servecache.NewLRU[retrievalEntry](defaultRetrievalCacheSize),
	}
	// In document order: index rows and tie-breaks are a serial build's.
	for i, d := range docs {
		if err := index.Add(d.ID, vecs[i]); err != nil {
			return nil, fmt.Errorf("core: indexing %s: %w", d.ID, err)
		}
		r.docs[d.ID] = indexDoc(d)
	}
	return r, nil
}

// EmbeddingModel exposes the trained embedder (benchmarks and the
// vector-store ablation reuse it).
func (r *Retriever) EmbeddingModel() *embedding.Model { return r.model }

// Instrument counts retrieval-cache outcomes on the registry (shared
// dio_cache_requests_total family, cache="retrieval").
func (r *Retriever) Instrument(reg *obs.Registry) {
	r.lookups = reg.CounterVec("dio_cache_requests_total",
		"Serving-cache lookups, by cache layer and outcome (hit, miss, coalesced, bypass).", "", "cache", "outcome")
}

// Version returns the monotonic document-set version (bumped by every
// AddDocument).
func (r *Retriever) Version() uint64 { return r.version.Load() }

// AddDocument indexes one new document (expert contributions arriving
// through the feedback loop) and bumps the retriever version, lazily
// invalidating cached retrievals.
func (r *Retriever) AddDocument(d catalog.Document) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.index.Add(d.ID, r.model.Embed(d.Text)); err != nil {
		return err
	}
	r.docs[d.ID] = indexDoc(d)
	r.version.Add(1)
	return nil
}

// Doc returns the indexed document with the given ID.
func (r *Retriever) Doc(id string) (catalog.Document, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.docs[id]
	return d.Document, ok
}

// ScoredDoc is one retrieved context document with its cosine-similarity
// score (trace attributes surface these so an explain view shows *why*
// each document entered the prompt).
type ScoredDoc struct {
	Doc llm.ContextDoc
	// Clipped is Doc as a prompt carries it, the text cut to its leading
	// tokens.
	Clipped llm.ContextDoc
	Score   float64
}

// RetrieveScored returns the top-k documents semantically closest to the
// query with their similarity scores, best first. Results are served from
// the retrieval cache when the document set has not changed since they
// were computed; a version mismatch recomputes, reusing nothing.
func (r *Retriever) RetrieveScored(query string, k int) []ScoredDoc {
	ver := r.version.Load()
	var qv embedding.Vector
	if e, ok := r.cache.Get(query); ok && e.version == ver {
		if e.k == k {
			r.countLookup("hit")
			return append([]ScoredDoc(nil), e.scored...)
		}
		// Same corpus, different k: the embedding is still valid.
		qv = e.vec
	}
	r.countLookup("miss")
	if qv == nil {
		qv = r.model.Embed(query)
	}
	r.mu.RLock()
	hits := r.index.Search(qv, k)
	out := make([]ScoredDoc, 0, len(hits))
	for _, h := range hits {
		if d, ok := r.docs[h.ID]; ok {
			out = append(out, d.scored(h.Score))
		}
	}
	r.mu.RUnlock()
	r.cache.Put(query, retrievalEntry{
		version: ver, k: k, vec: qv,
		scored: append([]ScoredDoc(nil), out...),
	})
	return out
}

// clipped returns the prompt form of the document indexed under id.
func (r *Retriever) clipped(id string) (llm.ContextDoc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.docs[id]
	return d.clipped, ok
}

func (r *Retriever) countLookup(outcome string) {
	if r.lookups != nil {
		r.lookups.With("retrieval", outcome).Inc()
	}
}

// Retrieve returns the top-k documents semantically closest to the query,
// as prompt-ready context docs, best first.
func (r *Retriever) Retrieve(query string, k int) []llm.ContextDoc {
	scored := r.RetrieveScored(query, k)
	out := make([]llm.ContextDoc, 0, len(scored))
	for _, s := range scored {
		out = append(out, s.Doc)
	}
	return out
}
