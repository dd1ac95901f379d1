// Command archgen emits CGRA architectures in the XML description
// language. With -all it writes the paper's eight Table 2 architectures
// into a directory; otherwise it prints the grid named by -fabric (a
// description such as 8x8:diag,hetero,c2; default 4x4) to stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cgramap/internal/arch"
)

func main() {
	var (
		all    = flag.Bool("all", false, "write all eight paper architectures")
		outDir = flag.String("dir", ".", "output directory for -all")
		fabric = flag.String("fabric", "", "grid description RxC[:orth|diag,homo|hetero,torus,cN,memN] (default "+arch.DefaultFabric+"; not with -all)")
	)
	flag.Parse()
	if err := run(*all, *outDir, *fabric); err != nil {
		fmt.Fprintln(os.Stderr, "archgen:", err)
		os.Exit(1)
	}
}

func run(all bool, outDir, fabric string) error {
	if all && fabric != "" {
		return fmt.Errorf("-all writes the paper's architectures; -fabric does not apply")
	}
	if all {
		for _, spec := range arch.PaperArchitectures() {
			a, err := arch.Grid(spec)
			if err != nil {
				return err
			}
			path := filepath.Join(outDir, spec.Name()+".xml")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := a.WriteXML(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
		return nil
	}
	a, err := arch.Load("", fabric, 0)
	if err != nil {
		return err
	}
	return a.WriteXML(os.Stdout)
}
