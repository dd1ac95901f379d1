// Package cgramap is an architecture-agnostic CGRA mapping toolkit: a Go
// reproduction of "An Architecture-Agnostic Integer Linear Programming
// Approach to CGRA Mapping" (Chin & Anderson, DAC 2018) together with the
// CGRA-ME-style modelling substrate it builds on.
//
// The flow mirrors the paper's Fig. 7:
//
//	arch  := cgramap.MustGrid(cgramap.GridSpec{Rows: 4, Cols: 4, Contexts: 2, Homogeneous: true})
//	mrrg  := cgramap.MustMRRG(arch)              // device model
//	app   := cgramap.Benchmark("accum")          // or build/parse your own DFG
//	res, _ := cgramap.Map(ctx, app, mrrg, cgramap.MapOptions{})
//	if res.Feasible() { res.Mapping.Write(os.Stdout) }
//
// The ILP mapper provably decides feasibility (and, in MinimizeRouting
// mode, optimality); the annealing mapper is the heuristic baseline the
// paper compares against. This facade re-exports the stable surface of
// the internal packages.
package cgramap

import (
	"context"
	"io"

	"cgramap/internal/anneal"
	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/budget"
	"cgramap/internal/config"
	"cgramap/internal/dfg"
	"cgramap/internal/faultinject"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/sched"
	"cgramap/internal/service"
	"cgramap/internal/sim"
	"cgramap/internal/solve/cdcl"
	"cgramap/internal/visual"
	"cgramap/internal/workload"
)

// Core model types.
type (
	// DFG is an application data-flow graph.
	DFG = dfg.Graph
	// Op and Value are DFG elements; OpKind enumerates operations.
	Op     = dfg.Op
	Value  = dfg.Value
	OpKind = dfg.Kind
	// Arch is a CGRA architecture (primitive netlist + context count).
	Arch = arch.Arch
	// GridSpec parameterises the paper's grid architecture family.
	GridSpec = arch.GridSpec
	// MRRG is the Modulo Routing Resource Graph of an architecture.
	MRRG = mrrg.Graph
	// Mapping is a verified placement and routing of a DFG on an MRRG.
	Mapping = mapper.Mapping
	// MapOptions and MapResult configure and report the ILP mapper.
	MapOptions = mapper.Options
	MapResult  = mapper.Result
	// AnnealOptions and AnnealResult configure and report the
	// simulated-annealing baseline mapper.
	AnnealOptions = anneal.Options
	AnnealResult  = anneal.Result
	// SymmetryMode controls symmetry-breaking constraints in the ILP
	// formulation (see MapOptions.Symmetry).
	SymmetryMode = mapper.SymmetryMode
	// FabricSymmetries holds the verified automorphisms of an
	// architecture's fabric graph and the PE orbits they induce.
	FabricSymmetries = arch.Symmetries
	// FabricAutomorphism is one verified fabric self-map.
	FabricAutomorphism = arch.Automorphism
	// Solver is the pluggable ILP engine interface.
	Solver = ilp.Solver
	// Status is a solve outcome (Optimal, Feasible, Infeasible,
	// Unknown).
	Status = ilp.Status
)

// Re-exported operation kinds.
const (
	Input  = dfg.Input
	Output = dfg.Output
	Add    = dfg.Add
	Sub    = dfg.Sub
	Mul    = dfg.Mul
	Shl    = dfg.Shl
	Shr    = dfg.Shr
	And    = dfg.And
	Or     = dfg.Or
	Xor    = dfg.Xor
	Not    = dfg.Not
	Load   = dfg.Load
	Store  = dfg.Store
)

// Re-exported solve statuses and objective modes.
const (
	StatusUnknown    = ilp.Unknown
	StatusInfeasible = ilp.Infeasible
	StatusFeasible   = ilp.Feasible
	StatusOptimal    = ilp.Optimal

	Feasibility     = mapper.Feasibility
	MinimizeRouting = mapper.MinimizeRouting

	SymmetryAuto = mapper.SymmetryAuto
	SymmetryOn   = mapper.SymmetryOn
	SymmetryOff  = mapper.SymmetryOff

	Orthogonal = arch.Orthogonal
	Diagonal   = arch.Diagonal
)

// NewDFG returns an empty data-flow graph with the given kernel name.
func NewDFG(name string) *DFG { return dfg.New(name) }

// ParseDFG reads a DFG in the textual format (see internal/dfg).
func ParseDFG(r io.Reader) (*DFG, error) { return dfg.Parse(r) }

// Benchmark builds one of the paper's 19 Table 1 benchmarks.
func Benchmark(name string) (*DFG, error) { return bench.Get(name) }

// BenchmarkNames lists the paper's benchmarks in Table 1 order.
func BenchmarkNames() []string { return bench.Names() }

// Grid builds a paper-style grid architecture.
func Grid(spec GridSpec) (*Arch, error) { return arch.Grid(spec) }

// MustGrid is Grid for known-good specs; it panics on error.
func MustGrid(spec GridSpec) *Arch {
	a, err := arch.Grid(spec)
	if err != nil {
		panic(err)
	}
	return a
}

// PaperArchitectures returns the paper's eight Table 2 architectures.
func PaperArchitectures() []GridSpec { return arch.PaperArchitectures() }

// DiscoverSymmetries finds and verifies the fabric automorphisms of an
// architecture: candidate grid transforms (reflections, rotations, torus
// translations) are checked against the actual primitive and
// interconnect structure, so heterogeneous ALU placement or shared
// memory ports soundly shrink the group. MapOptions.Symmetry turns the
// result into symmetry-breaking constraints; cmd/mrrgdump -symmetries
// prints it.
func DiscoverSymmetries(a *Arch) *FabricSymmetries { return arch.Discover(a) }

// ParseSymmetryMode resolves a -symmetry flag value ("auto", "on",
// "off").
func ParseSymmetryMode(s string) (SymmetryMode, error) { return mapper.ParseSymmetryMode(s) }

// ReadArchXML parses an architecture from the XML description language.
func ReadArchXML(r io.Reader) (*Arch, error) { return arch.ReadXML(r) }

// GenerateMRRG expands an architecture into its MRRG.
func GenerateMRRG(a *Arch) (*MRRG, error) { return mrrg.Generate(a) }

// MustMRRG is GenerateMRRG for known-good architectures; it panics on
// error.
func MustMRRG(a *Arch) *MRRG {
	g, err := mrrg.Generate(a)
	if err != nil {
		panic(err)
	}
	return g
}

// Map places and routes a DFG onto an MRRG with the paper's ILP
// formulation and independently verifies the result.
func Map(ctx context.Context, g *DFG, m *MRRG, opts MapOptions) (*MapResult, error) {
	return mapper.Map(ctx, g, m, opts)
}

// AnnealMap runs the simulated-annealing baseline mapper.
func AnnealMap(ctx context.Context, g *DFG, m *MRRG, opts AnnealOptions) (*AnnealResult, error) {
	return anneal.Map(ctx, g, m, opts)
}

// NewCDCLSolver returns the default propagation-based ILP engine.
func NewCDCLSolver() Solver { return cdcl.New() }

// SetWorkerBudget caps the number of extra solver workers the whole
// process may run concurrently — shared by parallel gangs, speculative
// MapAuto sweeps and the job service. The default is
// $CGRAMAP_WORKERS or the CPU count.
func SetWorkerBudget(n int) { budget.SetGlobal(n) }

// WorkerBudgetSize reports the process-wide worker budget's capacity.
func WorkerBudgetSize() int { return budget.Global().Size() }

// MapFunc is a drop-in replacement for the direct mapping pipeline (see
// MapOptions.MapWith).
type MapFunc = mapper.MapFunc

// Fault injection: a Solver decorator that exercises the robustness of
// everything above the solver seam. See internal/faultinject.
type (
	// FaultClass selects which faults an injector may fire.
	FaultClass = faultinject.Fault
	// FaultOptions configures a fault injector.
	FaultOptions = faultinject.Options
)

// Injectable fault classes.
const (
	FaultDelay           = faultinject.Delay
	FaultPanic           = faultinject.Panic
	FaultCancelEarly     = faultinject.CancelEarly
	FaultCorruptFlip     = faultinject.CorruptFlip
	FaultCorruptTruncate = faultinject.CorruptTruncate
)

// NewFaultInjector wraps a solver with configurable fault injection —
// the harness used to prove corrupted solutions never survive the
// mapper's decode/Verify gate.
func NewFaultInjector(inner Solver, opts FaultOptions) Solver { return faultinject.New(inner, opts) }

// Config is a fabric configuration (per-context multiplexer selections
// and functional-unit opcodes) extracted from a mapping.
type Config = config.Config

// ExtractConfig derives the fabric configuration from a verified mapping.
func ExtractConfig(m *Mapping) (*Config, error) { return config.Extract(m) }

// ValidateMapping simulates the mapping's fabric configuration with the
// given inputs (by input-op name) and load memory, and checks the
// observed outputs and stores against direct DFG evaluation.
func ValidateMapping(m *Mapping, inputs map[string]uint32, mem map[uint32]uint32) error {
	return sim.Validate(m, inputs, mem)
}

// DefaultInputs builds a deterministic input vector for a DFG.
func DefaultInputs(g *DFG, seed uint32) map[string]uint32 { return sim.DefaultInputs(g, seed) }

// MinII returns the modulo-scheduling lower bound max(ResMII, RecMII) for
// mapping g onto the architecture: the smallest context count that could
// possibly work (paper §3.2's modulo framing). It is an error for an
// invalid architecture, and when the bound is unavailable (an FU with
// II > 1).
func MinII(g *DFG, a *Arch) (int, error) {
	single := *a
	single.Contexts = 1
	if err := single.Validate(); err != nil {
		return 0, err
	}
	return sched.ArchMII(g, &single)
}

// AutoResult reports a MapAuto search.
type AutoResult = mapper.AutoResult

// MapAuto finds the provably smallest initiation interval (context count)
// that maps g onto the architecture, searching upward from the MII bound.
func MapAuto(ctx context.Context, g *DFG, a *Arch, maxII int, opts MapOptions) (*AutoResult, error) {
	return mapper.MapAuto(ctx, g, a, maxII, opts)
}

// ExtraKernel builds one of the extended (non-Table 1) kernels: fir4,
// complexmul, matvec2, horner4, iir1, memstride.
func ExtraKernel(name string) (*DFG, error) { return bench.GetExtra(name) }

// ExtraKernelNames lists the extended kernels.
func ExtraKernelNames() []string { return bench.ExtraNames() }

// WriteFloorPlan renders a mapping on a grid architecture as an ASCII
// floor plan, one panel per context.
func WriteFloorPlan(w io.Writer, m *Mapping) error { return visual.WriteGrid(w, m) }

// Mapping as a service: the cgramapd daemon (cmd/cgramapd) exposes the
// mappers as a concurrent job server with single-flight deduplication
// and a content-addressed result cache. See internal/service.
type (
	// ServiceOptions configures an embedded mapping job server.
	ServiceOptions = service.Options
	// Service is the mapping job server itself (HTTP surface via
	// Handler, programmatic via Submit/Wait/Result).
	Service = service.Server
	// ServiceClient talks to a cgramapd server; its MapFunc method
	// plugs remote solving into MapOptions.MapWith.
	ServiceClient = service.Client
	// JobRequest, JobStatus and JobResult are the service wire types.
	JobRequest = service.JobRequest
	JobStatus  = service.JobStatus
	JobResult  = service.JobResult
	// PortableMapping is the name-based serialisable mapping form;
	// reconstruct (and re-verify) with MappingFromPortable.
	PortableMapping = mapper.Portable
)

// NewService builds a mapping job server and starts its worker pool.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// NewServiceClient returns a client for a cgramapd server.
func NewServiceClient(baseURL string) *ServiceClient { return service.NewClient(baseURL) }

// MappingFromPortable rebinds a portable mapping to locally built DFG
// and MRRG values and verifies it from scratch.
func MappingFromPortable(g *DFG, m *MRRG, p *PortableMapping) (*Mapping, error) {
	return mapper.FromPortable(g, m, p)
}

// JobFingerprint is the canonical content-address of a mapping job:
// stable under DFG/architecture renaming and iteration order, sensitive
// to any semantic change. It keys the service's result cache.
func JobFingerprint(g *DFG, a *Arch, engine string, objective mapper.ObjectiveMode, autoII int) string {
	return service.Fingerprint(g, a, engine, objective, autoII)
}

// Artifact caching: bounded content-addressed stores for built MRRGs
// (keyed by architecture fingerprint and context count) and formulation
// templates (keyed by DFG and architecture fingerprints), shared across
// auto-II ladders, speculative lanes, and daemon jobs. See
// internal/mapper and MapOptions.Artifacts.
type (
	// ArtifactCache is a concurrency-safe LRU store of mapping
	// artifacts; concurrent misses for one key build it exactly once.
	ArtifactCache = mapper.ArtifactCache
	// ArtifactStats reports the cache's hit/miss/eviction counters and
	// retained-size gauges.
	ArtifactStats = mapper.ArtifactStats
	// FormulationTemplate is the II-independent half of the ILP
	// formulation for one (DFG, architecture) pair: build once, stamp a
	// model per context count.
	FormulationTemplate = mapper.Template
)

// NewArtifactCache returns an artifact cache holding up to capacity
// entries per artifact class. Share one cache across everything that
// maps the same kernels or fabrics: MapOptions.Artifacts threads it
// through Map/MapAuto, ServiceOptions sizes a daemon-wide one.
func NewArtifactCache(capacity int) *ArtifactCache { return mapper.NewArtifactCache(capacity) }

// NewFormulationTemplate performs the II-independent formulation
// analysis directly (MapOptions.Artifacts does this implicitly and
// caches the result).
func NewFormulationTemplate(g *DFG, a *Arch, opts MapOptions) (*FormulationTemplate, error) {
	return mapper.NewTemplate(g, a, opts)
}

// DFGFingerprint is the structural hash of an application graph alone.
func DFGFingerprint(g *DFG) string { return g.Fingerprint() }

// ArchFingerprint is the structural hash of an architecture alone.
func ArchFingerprint(a *Arch) string { return a.Fingerprint() }

// Workload generation: seeded random DFGs, kernel-family ladders and
// scaled fabrics, plus the mappability-frontier engine that bisects
// kernel size against the mapper. See internal/workload and
// cmd/frontier.
type (
	// WorkloadSpec shape-controls the seeded random-DFG generator.
	WorkloadSpec = workload.DFGSpec
	// KernelFamily names a parameterised kernel ladder (dot, fir,
	// stencil, reduce, conv2d, matvec, gen).
	KernelFamily = workload.Family
	// FrontierSpec and FrontierOptions configure a mappability sweep;
	// Frontier and FrontierBoundary report it.
	FrontierSpec     = workload.FrontierSpec
	FrontierOptions  = workload.FrontierOptions
	Frontier         = workload.Frontier
	FrontierBoundary = workload.Boundary
	FrontierProbe    = workload.Probe
)

// GenerateDFG builds a random DFG with the spec's shape; equal specs
// generate byte-identical graphs.
func GenerateDFG(spec WorkloadSpec) (*DFG, error) { return workload.GenerateDFG(spec) }

// Kernel builds rung n of a kernel family's ladder (seed matters only
// for the gen family).
func Kernel(family KernelFamily, n int, seed int64) (*DFG, error) {
	return workload.Kernel(family, n, seed)
}

// KernelFamilies lists the kernel families in a stable order.
func KernelFamilies() []KernelFamily { return workload.Families() }

// ParseFabric parses a compact fabric description such as
// "8x8:diag,hetero,c2" or "16x16:torus,mem4"; Grid builds it.
func ParseFabric(desc string) (GridSpec, error) { return arch.ParseFabric(desc) }

// StandardFabrics is the default exploration ladder from the paper's
// 4x4 through 16x16.
func StandardFabrics() []GridSpec { return workload.StandardFabrics() }

// RunFrontier charts where a kernel ladder flips from mappable to
// unmappable on each fabric, bisecting kernel size per (fabric, II)
// pair with per-probe panic and timeout containment.
func RunFrontier(ctx context.Context, spec FrontierSpec, opts FrontierOptions) (*Frontier, error) {
	return workload.RunFrontier(ctx, spec, opts)
}

// ReadFrontierJSON parses a frontier report written by
// Frontier.WriteJSON (or cmd/frontier's -json output).
func ReadFrontierJSON(r io.Reader) (*Frontier, error) { return workload.ReadFrontierJSON(r) }
