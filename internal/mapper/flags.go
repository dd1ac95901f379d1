package mapper

import (
	"flag"
	"fmt"

	"cgramap/internal/budget"
)

// Flags binds the speed knobs to command-line flags, so every command
// spells, documents and validates them the same way. Set the fields to
// the command's defaults, call Register (and RegisterReuse, for commands
// that solve chains of related instances) before parsing the flags and
// Options after. Knobs whose flags are not registered keep their field
// values.
type Flags struct {
	// Workers is the solver gang width and the process worker budget
	// (0 = every CPU of the process-wide budget).
	Workers int
	// Seed is the base solver seed (0 = engine defaults).
	Seed int64
	// Symmetry is a SymmetryMode name ("" = auto).
	Symmetry string
	// ArtifactCache is the artifact cache size in entries per class
	// (<= 0 disables the cache).
	ArtifactCache int

	workersName string
}

// Register defines -workers, -seed and -symmetry on fs, defaulting to
// f's current values. workersName and seedName rename the first two for
// commands that already use those names for something else; "" keeps
// the standard name.
func (f *Flags) Register(fs *flag.FlagSet, workersName, seedName string) {
	if workersName == "" {
		workersName = "workers"
	}
	if seedName == "" {
		seedName = "seed"
	}
	if f.Symmetry == "" {
		f.Symmetry = SymmetryAuto.String()
	}
	f.workersName = workersName
	fs.IntVar(&f.Workers, workersName, f.Workers, "parallel solver workers: the clause-sharing gang width and the process worker budget (0 = all CPUs or $CGRAMAP_WORKERS; 1 = sequential, bit-reproducible with a fixed seed)")
	fs.Int64Var(&f.Seed, seedName, f.Seed, "base solver seed (0 = engine defaults)")
	fs.StringVar(&f.Symmetry, "symmetry", f.Symmetry, "symmetry-breaking constraints from verified fabric automorphisms: auto (on for auto-II ladders, off at a fixed II) | on | off; same answer either way")
}

// RegisterReuse defines -artifact-cache on fs, the knob that carries work
// from one solve to related ones, defaulting to f's current value.
func (f *Flags) RegisterReuse(fs *flag.FlagSet) {
	fs.IntVar(&f.ArtifactCache, "artifact-cache", f.ArtifactCache, "artifact cache entries per class (MRRGs and formulation templates reused across solves; <= 0 disables)")
}

// Options checks the parsed flags, sizes the process-wide worker budget
// when the worker count is explicit, and returns the knobs as Options.
// A zero worker count resolves to the budget's size.
func (f *Flags) Options() (Options, error) {
	if f.Workers < 0 {
		return Options{}, fmt.Errorf("-%s must be non-negative", f.workersName)
	}
	sym, err := ParseSymmetryMode(f.Symmetry)
	if err != nil {
		return Options{}, err
	}
	if f.Workers > 0 {
		budget.SetGlobal(f.Workers)
	}
	o := Options{Workers: budget.Global().Size(), Seed: f.Seed, Symmetry: sym}
	if f.ArtifactCache > 0 {
		o.Artifacts = NewArtifactCache(f.ArtifactCache)
	}
	return o, nil
}
