package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/dfg"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
)

// formulateStride keeps every formulateStride-th model of the full
// 160-model grid, so one pass (about 12 s on a 2-CPU machine) still
// covers all ten fabrics and all nineteen kernels.
const formulateStride = 4

// formulate is the `cgramap -lp` path and the paper's own flow: build the
// ILP and hand it to an external solver. Search does no work here, so
// the formulation and export layers show. The models are the Table 2
// instances plus four kernels on homo-diag-c{1,2}-8x8, the fabrics where
// 10-operation kernels are too large to solve (74k-174k variables) but
// not to formulate. Like table2 the grid is fixed, not seeded.
type formulate struct {
	cfg    *config
	models []model
}

type model struct {
	g    *dfg.Graph
	spec arch.GridSpec
}

func (w *formulate) setup(cfg *config) error {
	w.cfg = cfg
	specs := arch.PaperArchitectures()
	for _, c := range []int{1, 2} {
		specs = append(specs, arch.GridSpec{Rows: 8, Cols: 8, Interconnect: arch.Diagonal, Homogeneous: true, Contexts: c})
	}
	var all []model
	for i, spec := range specs {
		names := bench.Names()
		if i >= 8 {
			names = []string{"2x2-f", "accum", "add_10", "mult_10"}
		}
		for _, n := range names {
			g, err := bench.Get(n)
			if err != nil {
				return err
			}
			all = append(all, model{g, spec})
		}
	}
	for i := 0; i < len(all); i += formulateStride {
		w.models = append(w.models, all[i])
	}
	if cfg.smoke {
		w.models = w.models[:2]
	}
	return nil
}

func (w *formulate) measure(_ context.Context, budget time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	return p, p.repeat(budget, len(w.models), func(i int) (op, error) {
		e, err := w.export(tr, len(p.ops)+1, w.models[i])
		if err != nil {
			return op{}, err
		}
		e.err = w.check(e)
		return e.op, nil
	})
}

// exported is one model's operation plus what its export must satisfy.
type exported struct {
	op
	kernel, fabric string
	presolved      bool
	vars, cons     int
	lines          int
}

// check verifies an export: a presolve proof must agree with the answer
// key, and the LP file must hold one line per constraint and per binary
// plus its six framing lines.
func (w *formulate) check(e *exported) error {
	if e.presolved {
		if want, ok := w.cfg.answers.Table2[instance(e.kernel, e.fabric)]; ok && want != "0" {
			return fmt.Errorf("%s on %s: presolve proved infeasible, answer key says %s", e.kernel, e.fabric, want)
		}
		return nil
	}
	if want := e.vars + e.cons + 6; e.lines != want {
		return fmt.Errorf("%s on %s: LP export has %d lines, want %d", e.kernel, e.fabric, e.lines, want)
	}
	return nil
}

// export takes one model from inputs to an LP file: arch.Grid,
// mrrg.Generate, mapper.NewTemplate, Template.BuildModel and
// ilp.Model.WriteLP, each in its own span when traced.
func (w *formulate) export(tr *tracer, trace int, m model) (*exported, error) {
	start := time.Now()
	root := tr.begin(trace, 0, "model")
	id := tr.begin(trace, root, "arch.grid")
	a, err := arch.Grid(m.spec)
	tr.end(id, "", nil)
	if err != nil {
		return nil, err
	}
	id = tr.begin(trace, root, "mrrg.generate")
	mg, err := mrrg.Generate(a)
	tr.end(id, "", nodeCounters(mg))
	if err != nil {
		return nil, err
	}
	id = tr.begin(trace, root, "template.build")
	t, err := mapper.NewTemplate(m.g, a, mapper.Options{})
	tr.end(id, "", nil)
	if err != nil {
		return nil, err
	}
	id = tr.begin(trace, root, "stamp")
	var before float64
	if tr != nil {
		before = allocated()
	}
	lp, _, err := t.BuildModel(mg)
	if tr != nil {
		tr.end(id, "", stampCounters(lp, allocated()-before))
	}
	if err != nil {
		return nil, err
	}
	e := &exported{kernel: m.g.Name, fabric: m.spec.Name(), presolved: lp == nil}
	e.input = instance(e.kernel, e.fabric)
	if lp != nil {
		id = tr.begin(trace, root, "ilp.writelp")
		var lc lineCounter
		if err := lp.WriteLP(&lc); err != nil {
			return nil, err
		}
		tr.end(id, "", map[string]float64{"bytes": float64(lc.bytes)})
		e.vars, e.cons, e.lines = lp.NumVars(), len(lp.Constraints), lc.lines
	}
	tr.end(root, "", nil)
	e.dur = time.Since(start)
	e.decided = true
	return e, nil
}

// lineCounter is the export's destination: it discards the LP text but
// counts its bytes and lines.
type lineCounter struct{ bytes, lines int }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.bytes += len(p)
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}
