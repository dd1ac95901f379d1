package mapper

import (
	"crypto/sha256"
	"fmt"

	"cgramap/internal/arch"
	"cgramap/internal/dfg"
	"cgramap/internal/lru"
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
	mrrgs     *lru.Cache[*mrrg.Graph]
	templates *lru.Cache[*Template]
}

// NewArtifactCache returns a cache bounded to the given number of
// entries per artifact class (MRRGs and templates each get their own
// LRU of that capacity, since their sizes and reuse patterns differ). A
// zero or negative capacity disables retention; lookups then always
// rebuild (still single-flighted, so concurrent identical requests
// share one build).
func NewArtifactCache(capacity int) *ArtifactCache {
	return &ArtifactCache{mrrgs: lru.New[*mrrg.Graph](capacity), templates: lru.New[*Template](capacity)}
}

// ArtifactStats is a point-in-time snapshot of both artifact classes:
// hits, misses, evictions, entries and approximate retained bytes of the
// MRRG store and of the formulation-template store.
type ArtifactStats struct {
	MRRG, Template lru.Stats
}

// Stats returns a snapshot of the cache counters.
func (c *ArtifactCache) Stats() ArtifactStats {
	return ArtifactStats{MRRG: c.mrrgs.Stats(), Template: c.templates.Stats()}
}

// MRRG returns the (cached) MRRG for a, keyed by mrrg.CacheKey. The
// returned graph is shared: callers must not modify it. Generation
// errors (an FU initiation interval that does not divide the context
// count) are per-II infeasibility, so they are returned, never cached.
func (c *ArtifactCache) MRRG(a *arch.Arch) (*mrrg.Graph, error) {
	return c.mrrgs.Do(mrrg.CacheKey(a), func() (*mrrg.Graph, int64, error) {
		g, err := mrrg.Generate(a)
		if err != nil {
			return nil, 0, err
		}
		return g, g.ApproxBytes(), nil
	})
}

// templateKey derives the content-addressed template key. The
// architecture hash is taken at a normalised context count of 1,
// because a template is II-independent: every II of one fabric shares
// the entry. The formulation options that shape the template (objective
// mode, pruning, presolve, symmetry) are part of the key; solver-side
// options (workers, seed) are not — they never reach the
// formulation. Symmetry enters as on or not: SymmetryAuto and
// SymmetryOff build the same template.
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
	names := []byte(g.Name)
	for _, op := range g.Ops() {
		names = append(append(names, 0), op.Name...)
	}
	for _, v := range g.Vals() {
		names = append(append(names, 0), v.Name...)
	}
	sum := sha256.Sum256(names)
	return fmt.Sprintf("%s/%x/%s/o%d-p%t-s%t-y%t", g.Fingerprint(), sum[:], single.Fingerprint(),
		opts.Objective, opts.DisablePruning, opts.DisablePresolve, opts.Symmetry == SymmetryOn)
}

// template returns the (cached) formulation template for mapping g onto
// the architecture, building and single-flighting on miss.
func (c *ArtifactCache) template(g *dfg.Graph, a *arch.Arch, opts Options) (*Template, error) {
	return c.templates.Do(templateKey(g, a, opts), func() (*Template, int64, error) {
		t, err := NewTemplate(g, a, opts)
		if err != nil {
			return nil, 0, err
		}
		return t, t.approxBytes, nil
	})
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
