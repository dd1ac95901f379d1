package mapper

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mrrg"
)

// artifactArch is the heterogeneous Table 1 fabric the artifact tests
// stamp against (contexts overridden per II).
var artifactArch = arch.GridSpec{Rows: 4, Cols: 4, Interconnect: arch.Diagonal, Homogeneous: false, Contexts: 1}

func gridAt(t *testing.T, spec arch.GridSpec, ii int) (*arch.Arch, *mrrg.Graph) {
	t.Helper()
	spec.Contexts = ii
	a, err := arch.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := mrrg.Generate(a)
	if err != nil {
		t.Fatal(err)
	}
	return a, mg
}

func lpBytes(t *testing.T, m *ilp.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStampedScratchByteIdentity is the contract the artifact cache
// lives by: a model stamped from a cached template must be
// byte-identical — same variable numbering, same constraint order, same
// LP serialisation — to one formulated from scratch. Checked across
// kernels, objectives, and IIs, including the repeat-stamp case where
// the template really comes out of the cache.
func TestStampedScratchByteIdentity(t *testing.T) {
	kernels := []string{"accum", "mac", "2x2-f"}
	if os.Getenv("CGRAMAP_ARTIFACT_EQUIV_ALL") != "" {
		// The CI artifact-cache equivalence job sweeps the whole Table 1
		// set; the default subset keeps plain `go test` fast.
		kernels = bench.Names()
	}
	cache := NewArtifactCache(2 * len(kernels))
	for _, kernel := range kernels {
		g := bench.MustGet(kernel)
		for _, obj := range []ObjectiveMode{Feasibility, MinimizeRouting} {
			for ii := 1; ii <= 3; ii++ {
				_, mg := gridAt(t, artifactArch, ii)
				scratchOpts := Options{Objective: obj}
				cachedOpts := Options{Objective: obj, Artifacts: cache}

				sm, sreason, err := BuildModel(g, mg, scratchOpts)
				if err != nil {
					t.Fatal(err)
				}
				// Stamp twice: the first call may build the template, the
				// second must hit the cache. Both must match scratch.
				for pass := 0; pass < 2; pass++ {
					cm, creason, err := BuildModel(g, mg, cachedOpts)
					if err != nil {
						t.Fatal(err)
					}
					if creason != sreason {
						t.Fatalf("%s obj=%d ii=%d pass %d: cached reason %q, scratch %q",
							kernel, obj, ii, pass, creason, sreason)
					}
					if (cm == nil) != (sm == nil) {
						t.Fatalf("%s obj=%d ii=%d pass %d: cached model nil=%v, scratch nil=%v",
							kernel, obj, ii, pass, cm == nil, sm == nil)
					}
					if sm == nil {
						continue
					}
					if cm.Fingerprint() != sm.Fingerprint() {
						t.Fatalf("%s obj=%d ii=%d pass %d: stamped model fingerprint differs from scratch",
							kernel, obj, ii, pass)
					}
					if !bytes.Equal(lpBytes(t, cm), lpBytes(t, sm)) {
						t.Fatalf("%s obj=%d ii=%d pass %d: stamped LP bytes differ from scratch",
							kernel, obj, ii, pass)
					}
				}
			}
		}
	}
	st := cache.Stats()
	if st.Template.Misses == 0 || st.Template.Hits == 0 {
		t.Fatalf("expected both template misses and hits, got %+v", st)
	}
}

// TestTemplateCacheEviction: a capacity-1 template store keeps only the
// most recent kernel; revisiting the evicted one misses again.
func TestTemplateCacheEviction(t *testing.T) {
	cache := NewArtifactCache(1)
	a, _ := gridAt(t, artifactArch, 1)
	ga, gb := bench.MustGet("accum"), bench.MustGet("mac")

	if _, err := cache.template(ga, a, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.template(gb, a, Options{}); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Template.Evictions != 1 || st.Template.Entries != 1 {
		t.Fatalf("after 2 kernels at cap 1: evictions=%d entries=%d, want 1 and 1",
			st.Template.Evictions, st.Template.Entries)
	}
	if _, err := cache.template(ga, a, Options{}); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Template.Misses != 3 || st.Template.Hits != 0 {
		t.Fatalf("evicted template re-request: misses=%d hits=%d, want 3 and 0",
			st.Template.Misses, st.Template.Hits)
	}
	if st.Template.Bytes <= 0 {
		t.Fatalf("template bytes gauge not maintained: %d", st.Template.Bytes)
	}
}

// TestTemplateCacheSingleFlight: concurrent misses for one key build the
// template exactly once; every waiter shares the pointer and counts as a
// hit.
func TestTemplateCacheSingleFlight(t *testing.T) {
	cache := NewArtifactCache(4)
	a, _ := gridAt(t, artifactArch, 1)
	g := bench.MustGet("mac")

	const n = 16
	var wg sync.WaitGroup
	results := make([]*Template, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tm, err := cache.template(g, a, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = tm
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different template pointer", i)
		}
	}
	st := cache.Stats()
	if st.Template.Misses != 1 || st.Template.Hits != n-1 {
		t.Fatalf("single-flight stats: misses=%d hits=%d, want 1 and %d",
			st.Template.Misses, st.Template.Hits, n-1)
	}
}

// TestMRRGCacheSharesEqualArch: the MRRG store is content-addressed, so
// a structurally equal but distinct *arch.Arch hits and gets the same
// graph.
func TestMRRGCacheSharesEqualArch(t *testing.T) {
	cache := NewArtifactCache(4)
	spec := arch.GridSpec{Rows: 2, Cols: 2, Contexts: 2}
	a, _ := gridAt(t, spec, 2)
	b, _ := gridAt(t, spec, 2)
	g1, err := cache.MRRG(a)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := cache.MRRG(b)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("an equal architecture did not return the cached graph")
	}
	if s := cache.Stats().MRRG; s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes <= 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry and a positive byte estimate", s)
	}
}

// TestMRRGCacheKeyDistinguishesContexts: one fabric at contexts 1, 2
// and 3 takes three entries, each the graph of its own context count.
func TestMRRGCacheKeyDistinguishesContexts(t *testing.T) {
	cache := NewArtifactCache(4)
	for _, ii := range []int{1, 2, 3} {
		a, _ := gridAt(t, arch.GridSpec{Rows: 2, Cols: 2}, ii)
		g, err := cache.MRRG(a)
		if err != nil {
			t.Fatal(err)
		}
		if g.Contexts != ii {
			t.Fatalf("contexts %d returned a %d-context graph", ii, g.Contexts)
		}
	}
	if s := cache.Stats().MRRG; s.Hits != 0 || s.Misses != 3 || s.Entries != 3 {
		t.Fatalf("stats = %+v, want 0 hits, 3 misses, 3 entries", s)
	}
}

// TestConcurrentStampingMatchesScratch is the -race stress for the
// template's stamper pool: many goroutines stamp models for different
// IIs from one shared cache — the shape of MapAuto's parallel
// speculative lanes — and every stamped model must fingerprint
// identically to a scratch formulation at its II.
func TestConcurrentStampingMatchesScratch(t *testing.T) {
	cache := NewArtifactCache(8)
	g := bench.MustGet("mac")

	const maxII = 4
	want := make([]string, maxII+1)
	graphs := make([]*mrrg.Graph, maxII+1)
	for ii := 1; ii <= maxII; ii++ {
		_, mg := gridAt(t, artifactArch, ii)
		graphs[ii] = mg
		m, _, err := BuildModel(g, mg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[ii] = m.Fingerprint()
	}

	const lanes = 16
	var wg sync.WaitGroup
	for i := 0; i < lanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ii := i%maxII + 1
			m, _, err := BuildModel(g, graphs[ii], Options{Artifacts: cache})
			if err != nil {
				t.Error(err)
				return
			}
			if m.Fingerprint() != want[ii] {
				t.Errorf("lane %d: stamped model at II=%d differs from scratch", i, ii)
			}
		}(i)
	}
	wg.Wait()
}

// TestMapAutoCachedEquivalentToScratchLadder: an auto-II sweep through a
// shared (and, on the second run, fully warm) artifact cache reports the
// same minimal II and per-II trajectory as a hand-rolled ladder of
// scratch solves.
func TestMapAutoCachedEquivalentToScratchLadder(t *testing.T) {
	spec := artifactArch
	a, err := arch.Grid(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := bench.MustGet("accum")
	const maxII = 4
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Ground truth: scratch solves, one per II, no caching anywhere.
	wantII, wantStatus := 0, ilp.Infeasible
	var trajectory []ilp.Status
	for ii := 1; ii <= maxII; ii++ {
		_, mg := gridAt(t, spec, ii)
		res, err := Map(ctx, g, mg, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		trajectory = append(trajectory, res.Status)
		if res.Feasible() {
			wantII, wantStatus = ii, res.Status
			break
		}
	}
	if wantII == 0 {
		t.Fatalf("accum unmappable up to II=%d on %s", maxII, a.Name)
	}

	shared := NewArtifactCache(16)
	for run := 0; run < 2; run++ {
		auto, err := MapAuto(ctx, g, a, maxII, Options{Seed: 1, Artifacts: shared})
		if err != nil {
			t.Fatal(err)
		}
		if auto.II != wantII || auto.Status != wantStatus {
			t.Fatalf("run %d: cached ladder II=%d status=%v, scratch II=%d status=%v",
				run, auto.II, auto.Status, wantII, wantStatus)
		}
		for i, s := range auto.Tried {
			if s != trajectory[i] {
				t.Fatalf("run %d: cached trajectory %v, scratch %v", run, auto.Tried, trajectory)
			}
		}
	}
	st := shared.Stats()
	if st.Template.Hits == 0 || st.MRRG.Hits == 0 {
		t.Fatalf("warm rerun produced no cache hits: %+v", st)
	}
}

// TestColdStampReservation: a cold stamp (no size hint yet) reserves at
// least what it emits, so its arrays never regrow, and at most 1.25x of
// it, so the reservation never bloats the heap. Checked on every Table
// 2 instance plus the four 8x8 kernels the formulate benchmark exports;
// a symmetry-breaking stamp must still reserve enough.
func TestColdStampReservation(t *testing.T) {
	type instance struct {
		kernels []string
		spec    arch.GridSpec
	}
	var cases []instance
	for _, spec := range arch.PaperArchitectures() {
		cases = append(cases, instance{bench.Names(), spec})
	}
	for _, c := range []int{1, 2} {
		cases = append(cases, instance{[]string{"2x2-f", "accum", "add_10", "mult_10"},
			arch.GridSpec{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: c}})
	}
	check := func(name string, opts Options, a *arch.Arch, mg *mrrg.Graph, tight bool) {
		tmpl, err := NewTemplate(bench.MustGet(name), a, opts)
		if err != nil {
			t.Fatal(err)
		}
		f, err := tmpl.stamp(mg)
		if err != nil {
			t.Fatal(err)
		}
		if f.infeasible != "" {
			return
		}
		m := f.model
		got := modelSize{vars: m.NumVars(), cons: len(m.Constraints)}
		for i := range m.Constraints {
			got.terms += len(m.Terms(i))
		}
		r := f.reserved
		under := r.vars < got.vars || r.cons < got.cons || r.terms < got.terms
		bloated := tight && (r.vars != got.vars || 4*r.cons > 5*got.cons || 4*r.terms > 5*got.terms)
		if under || bloated {
			t.Errorf("%s on %s (symmetry %v): reserved %+v, emitted %+v", name, a.Name, opts.Symmetry, r, got)
		}
	}
	for _, c := range cases {
		a, err := arch.Grid(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		mg, err := mrrg.Generate(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range c.kernels {
			check(name, Options{}, a, mg, true)
			if c.spec.Rows == 4 && c.spec.Contexts == 1 {
				check(name, Options{Symmetry: SymmetryOn}, a, mg, false)
			}
		}
	}
}

// TestTemplateCacheKeepsNames: cos_4 and cosh_4 are isomorphic (equal
// DFG fingerprints) but differently named. Through one cache, each must
// still get a model under its own names, identical to its scratch model.
func TestTemplateCacheKeepsNames(t *testing.T) {
	cos, cosh := bench.MustGet("cos_4"), bench.MustGet("cosh_4")
	if cos.Fingerprint() != cosh.Fingerprint() {
		t.Skip("cos_4 and cosh_4 are no longer isomorphic")
	}
	_, mg := gridAt(t, artifactArch, 2)
	cache := NewArtifactCache(4)
	for _, g := range []*dfg.Graph{cos, cosh} {
		sm, _, err := BuildModel(g, mg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cm, _, err := BuildModel(g, mg, Options{Artifacts: cache})
		if err != nil {
			t.Fatal(err)
		}
		if sm == nil || cm == nil || cm.Fingerprint() != sm.Fingerprint() {
			t.Errorf("%s: cached model differs from scratch", g.Name)
		}
	}
}
