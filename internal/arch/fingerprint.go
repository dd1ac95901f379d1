package arch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
)

// Fingerprint returns a canonical content hash of the architecture's
// semantic structure: the context count, every primitive's parameters
// (kind, port count, supported operations, latency, initiation interval,
// cost) in netlist index order, and the connection list in a sorted
// canonical order. Primitive and architecture names are excluded, so
// renaming primitives does not change the hash, and connections hash
// identically however their insertion order was produced (e.g. from a
// map-ordered builder). Any semantic edit — another context count, a
// different FU operation set, an added or rewired connection — changes
// the hash.
//
// Together with dfg.Fingerprint this keys the mapping service's
// content-addressed result cache: the MRRG (and therefore the ILP
// formulation) is generated from exactly the structure hashed here.
func (a *Arch) Fingerprint() string {
	h := sha256.New()
	h.Write([]byte("cgramap/arch/v1\n"))
	fpInt(h, a.Contexts)
	fpInt(h, len(a.Prims))
	var ops []int // one sort buffer serves every primitive
	for _, p := range a.Prims {
		fpInt(h, int(p.Kind))
		fpInt(h, p.NIn)
		fpInt(h, p.Latency)
		fpInt(h, p.II)
		fpInt(h, p.Cost)
		ops = ops[:0]
		for _, op := range p.Ops {
			ops = append(ops, int(op))
		}
		sort.Ints(ops)
		fpInt(h, len(ops))
		for _, op := range ops {
			fpInt(h, op)
		}
	}
	conns := make([]Conn, len(a.Conns))
	copy(conns, a.Conns)
	sort.Slice(conns, func(i, j int) bool {
		if conns[i].Dst != conns[j].Dst {
			return conns[i].Dst < conns[j].Dst
		}
		if conns[i].DstPort != conns[j].DstPort {
			return conns[i].DstPort < conns[j].DstPort
		}
		return conns[i].Src < conns[j].Src
	})
	fpInt(h, len(conns))
	for _, c := range conns {
		fpInt(h, c.Src)
		fpInt(h, c.Dst)
		fpInt(h, c.DstPort)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fpInt feeds one integer into the hash in a fixed-width encoding, so
// adjacent fields cannot alias.
func fpInt(h hash.Hash, v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	h.Write(buf[:])
}
