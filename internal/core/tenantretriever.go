package core

import (
	"sort"

	"dio/internal/catalog"
	"dio/internal/embedding"
	"dio/internal/llm"
	"dio/internal/tenant"
	"dio/internal/vecstore"
)

// This file adds tenant-scoped retrieval: every tenant searches the shared
// base corpus, and tenants with private expert contributions additionally
// search a small per-tenant overlay index. Results merge by similarity
// score, so a tenant's own docs compete on equal footing with vendor docs.
// The default tenant has no overlay — its retrievals are exactly the
// pre-tenancy ones.

// tenantIndex is one tenant's private document overlay: a small flat
// vector index plus the documents behind it. Guarded by Retriever.mu.
type tenantIndex struct {
	index   vecstore.Index
	docs    map[string]indexedDoc
	version uint64
}

// tenantIndexLocked returns (creating if needed) a tenant's overlay index.
// Callers hold the write lock.
func (r *Retriever) tenantIndexLocked(id string) *tenantIndex {
	if r.tenants == nil {
		r.tenants = make(map[string]*tenantIndex)
	}
	ti, ok := r.tenants[id]
	if !ok {
		ti = &tenantIndex{index: vecstore.NewFlat(r.model.Dim()), docs: make(map[string]indexedDoc)}
		r.tenants[id] = ti
		r.ntenants.Add(1)
	}
	return ti
}

// TenantVersion returns the version a tenant's cached retrievals must key
// on: the shared corpus version plus the tenant overlay's own counter.
func (r *Retriever) TenantVersion(id string) uint64 {
	base := r.version.Load()
	// Lock-free fast path: with no tenant overlays (the common serving
	// state) every tenant keys on the shared corpus version.
	if id == tenant.Default || r.ntenants.Load() == 0 {
		return base
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if ti, ok := r.tenants[id]; ok {
		return base + ti.version
	}
	return base
}

// AddDocumentTenant indexes a document contributed on behalf of a tenant.
// The default tenant writes to the shared corpus (identical to
// AddDocument); any other tenant gets a private overlay index entry,
// bumping only that tenant's version.
func (r *Retriever) AddDocumentTenant(id string, d catalog.Document) error {
	if id == tenant.Default {
		return r.AddDocument(d)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ti := r.tenantIndexLocked(id)
	// A second contribution under one id replaces the first, vector and all.
	if err := ti.index.Add(d.ID, r.model.Embed(d.Text)); err != nil {
		return err
	}
	ti.docs[d.ID] = indexDoc(d)
	ti.version++
	return nil
}

// clippedTenant returns the prompt form of the document a tenant sees
// under id: its overlay entry when one exists, the shared base entry
// otherwise.
func (r *Retriever) clippedTenant(tid, id string) (llm.ContextDoc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if tid != tenant.Default {
		if ti, ok := r.tenants[tid]; ok {
			if d, ok := ti.docs[id]; ok {
				return d.clipped, true
			}
		}
	}
	d, ok := r.docs[id]
	return d.clipped, ok
}

// RetrieveScoredTenant returns the top-k documents closest to the query as
// seen by one tenant: shared corpus hits merged with the tenant's private
// overlay hits, by score. Cached per tenant under the combined version, so
// a tenant contribution invalidates only that tenant's entries.
func (r *Retriever) RetrieveScoredTenant(tid, query string, k int) []ScoredDoc {
	ver := r.TenantVersion(tid)
	key := tid + "\x1f" + query
	var qv embedding.Vector
	if e, ok := r.cache.Get(key); ok && e.version == ver {
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
		d, ok := r.docs[h.ID]
		if !ok {
			continue
		}
		out = append(out, d.scored(h.Score))
	}
	if tid != tenant.Default {
		if ti, ok := r.tenants[tid]; ok {
			// Overlay entries shadow base entries with the same ID: the
			// tenant's contributed text supersedes the vendor doc.
			dedup := out[:0]
			for _, s := range out {
				if _, shadowed := ti.docs[s.Doc.ID]; !shadowed {
					dedup = append(dedup, s)
				}
			}
			out = dedup
			for _, h := range ti.index.Search(qv, k) {
				d, ok := ti.docs[h.ID]
				if !ok {
					continue
				}
				out = append(out, d.scored(h.Score))
			}
			sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
			if len(out) > k {
				out = out[:k]
			}
		}
	}
	r.mu.RUnlock()
	r.cache.Put(key, retrievalEntry{
		version: ver, k: k, vec: qv,
		scored: append([]ScoredDoc(nil), out...),
	})
	return out
}
