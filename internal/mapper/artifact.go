package mapper

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"

	"cgramap/internal/arch"
	"cgramap/internal/dfg"
	"cgramap/internal/mrrg"
)

// ArtifactCache is a content-addressed store of the intermediate
// artifacts between parsing and solving: generated MRRGs, keyed by
// (architecture fingerprint, context count), and formulation templates,
// keyed by (DFG fingerprint, architecture fingerprint, formulation
// options). One cache serves a whole process — the daemon shares one
// across all jobs, the CLIs across a run — so repeated sweeps over one
// fabric skip straight to stamping and solving.
//
// Keying is purely structural: renaming a kernel or a primitive does
// not miss, and any semantic edit misses by construction, so there is
// no invalidation protocol — stale entries are impossible, and the only
// eviction is LRU capacity pressure. All methods are safe for
// concurrent use; cached artifacts are shared and immutable.
type ArtifactCache struct {
	mrrgs *mrrg.Cache

	mu       sync.Mutex
	cap      int
	order    *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*tmplFlight

	hits      int64
	misses    int64
	evictions int64
	bytes     int64
}

type tmplEntry struct {
	key   string
	t     *Template
	bytes int64
}

type tmplFlight struct {
	done chan struct{}
	t    *Template
	err  error
}

// NewArtifactCache returns a cache bounded to the given number of
// entries per artifact class (MRRGs and templates each get their own
// LRU of that capacity, since their sizes and reuse patterns differ). A
// zero or negative capacity disables retention; lookups then always
// rebuild (still single-flighted, so concurrent identical requests
// share one build).
func NewArtifactCache(capacity int) *ArtifactCache {
	return &ArtifactCache{
		mrrgs:    mrrg.NewCache(capacity),
		cap:      capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*tmplFlight),
	}
}

// ArtifactStats is a point-in-time snapshot of both artifact classes.
type ArtifactStats struct {
	// MRRG reports the MRRG store (hits, misses, evictions, entries,
	// approximate bytes).
	MRRG mrrg.CacheStats
	// Template* report the formulation-template store.
	TemplateHits, TemplateMisses, TemplateEvictions int64
	TemplateEntries                                 int
	TemplateBytes                                   int64
}

// Stats returns a snapshot of the cache counters.
func (c *ArtifactCache) Stats() ArtifactStats {
	s := ArtifactStats{MRRG: c.mrrgs.Stats()}
	c.mu.Lock()
	s.TemplateHits = c.hits
	s.TemplateMisses = c.misses
	s.TemplateEvictions = c.evictions
	s.TemplateEntries = c.order.Len()
	s.TemplateBytes = c.bytes
	c.mu.Unlock()
	return s
}

// MRRG returns the (cached) MRRG for a. The returned graph is shared:
// callers must not modify it.
func (c *ArtifactCache) MRRG(a *arch.Arch) (*mrrg.Graph, error) {
	return c.mrrgs.Generate(a)
}

// templateKey derives the content-addressed template key. The
// architecture hash is taken at a normalised context count of 1,
// because a template is II-independent: every II of one fabric shares
// the entry. The formulation options that shape the template (objective
// mode, pruning, presolve, symmetry) are part of the key; solver-side
// options (workers, seed) are not — they never reach the
// formulation. Symmetry must be resolved (never SymmetryAuto) by the
// time a template is requested, so the key is well-defined.
//
// The DFG fingerprint ignores names, but a template's stamps carry them
// (the model name and every F/R variable name come from the template's
// own graph), so the key also hashes the kernel, operation and value
// names: two isomorphic kernels with different names (cos_4 and cosh_4)
// must not share a template, or one would be exported and decoded under
// the other's names.
func templateKey(g *dfg.Graph, a *arch.Arch, opts Options) string {
	single := *a
	single.Contexts = 1
	names := sha256.New()
	io.WriteString(names, g.Name)
	for _, op := range g.Ops() {
		names.Write([]byte{0})
		io.WriteString(names, op.Name)
	}
	for _, v := range g.Vals() {
		names.Write([]byte{0})
		io.WriteString(names, v.Name)
	}
	return fmt.Sprintf("%s/%x/%s/o%d-p%t-s%t-y%t", g.Fingerprint(), names.Sum(nil), single.Fingerprint(),
		opts.Objective, opts.DisablePruning, opts.DisablePresolve, opts.Symmetry == SymmetryOn)
}

// template returns the (cached) formulation template for mapping g onto
// the architecture, building and single-flighting on miss.
func (c *ArtifactCache) template(g *dfg.Graph, a *arch.Arch, opts Options) (*Template, error) {
	key := templateKey(g, a, opts)

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		t := el.Value.(*tmplEntry).t
		c.mu.Unlock()
		return t, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-fl.done
		return fl.t, fl.err
	}
	c.misses++
	fl := &tmplFlight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	fl.t, fl.err = NewTemplate(g, a, opts)

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil && c.cap > 0 {
		size := fl.t.approxBytes
		c.entries[key] = c.order.PushFront(&tmplEntry{key: key, t: fl.t, bytes: size})
		c.bytes += size
		for c.order.Len() > c.cap {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			e := oldest.Value.(*tmplEntry)
			delete(c.entries, e.key)
			c.bytes -= e.bytes
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.t, fl.err
}

// templateFor resolves the formulation template for (g, arch): from the
// artifact cache when the caller carries one, freshly built otherwise.
// This is the single seam through which every formulation — scratch or
// cached — is produced, which is what makes stamped and scratch models
// byte-identical by construction.
func templateFor(g *dfg.Graph, a *arch.Arch, opts Options) (*Template, error) {
	if opts.Artifacts != nil {
		return opts.Artifacts.template(g, a, opts)
	}
	return NewTemplate(g, a, opts)
}
