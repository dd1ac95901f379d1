package ilp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
)

// Fingerprint returns a canonical content hash of the complete model:
// the name, every variable (diagnostic name, branch priority, phase
// hint) in index order, every constraint in emission order, and the
// objective. Two models fingerprint equal exactly when they are
// byte-identical to a solver — same variable numbering, same constraint
// order, same hints — which is the property the artifact-cache
// equivalence gate checks: a formulation stamped from a cached template
// must hash identically to one built from scratch.
func (m *Model) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, "cgramap/ilp/v1\n")
	io.WriteString(h, m.Name)
	h.Write([]byte{0})
	hashInt(h, m.NumVars())
	for v := 0; v < m.NumVars(); v++ {
		io.WriteString(h, m.VarName(Var(v)))
		h.Write([]byte{0})
		hashInt(h, m.BranchPriority(Var(v)))
		if m.PhaseHint(Var(v)) {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	hashInt(h, len(m.Constraints))
	for i, c := range m.Constraints {
		io.WriteString(h, m.ConstraintName(i))
		h.Write([]byte{0})
		hashInt(h, int(c.Rel))
		hashInt(h, int(c.RHS))
		terms := m.Terms(i)
		hashInt(h, len(terms))
		for _, t := range terms {
			hashInt(h, int(t.Var))
			hashInt(h, int(t.Coef))
		}
	}
	hashInt(h, len(m.Objective))
	for _, t := range m.Objective {
		hashInt(h, int(t.Var))
		hashInt(h, int(t.Coef))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashInt feeds one integer into the hash in a fixed-width encoding, so
// adjacent fields cannot alias.
func hashInt(h hash.Hash, v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	h.Write(buf[:])
}
