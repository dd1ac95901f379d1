package mapper

import (
	"flag"
	"io"
	"strings"
	"testing"

	"cgramap/internal/budget"
)

// TestFlags: the shared knob flags parse into Options under their
// standard or renamed spellings, and reject bad values by flag name.
func TestFlags(t *testing.T) {
	defer budget.SetGlobal(budget.DefaultSize())
	parse := func(f *Flags, workersName, seedName string, args ...string) (Options, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f.Register(fs, workersName, seedName)
		f.RegisterReuse(fs)
		if err := fs.Parse(args); err != nil {
			return Options{}, err
		}
		return f.Options()
	}

	o, err := parse(&Flags{Workers: 1, ArtifactCache: 8}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if o.Workers != 1 || o.Seed != 0 || o.Symmetry != SymmetryAuto || o.Artifacts == nil {
		t.Errorf("defaults: %+v", o)
	}

	o, err = parse(&Flags{}, "solve-workers", "solver-seed",
		"-solve-workers", "3", "-solver-seed", "9", "-symmetry", "off", "-artifact-cache", "0")
	if err != nil {
		t.Fatal(err)
	}
	if o.Workers != 3 || o.Seed != 9 || o.Symmetry != SymmetryOff || o.Artifacts != nil {
		t.Errorf("renamed flags: %+v", o)
	}
	if got := budget.Global().Size(); got != 3 {
		t.Errorf("explicit worker count did not size the budget: %d", got)
	}

	if _, err := parse(&Flags{}, "solve-workers", "", "-solve-workers", "-1"); err == nil || !strings.Contains(err.Error(), "-solve-workers") {
		t.Errorf("negative worker count: err = %v, want one naming -solve-workers", err)
	}
	if _, err := parse(&Flags{}, "", "", "-symmetry", "sideways"); err == nil {
		t.Error("unknown symmetry mode accepted")
	}

	// Register alone leaves the reuse knob at its field value.
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	f := Flags{Workers: 1}
	f.Register(fs, "", "")
	if fs.Lookup("artifact-cache") != nil {
		t.Error("Register defined a reuse flag")
	}
	if o, err := f.Options(); err != nil || o.Artifacts != nil {
		t.Errorf("unregistered reuse knob: %+v, %v", o, err)
	}
}
