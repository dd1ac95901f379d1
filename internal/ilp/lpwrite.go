package ilp

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// lpSafe marks the ASCII bytes an LP name may carry unchanged; every
// other rune of a variable name becomes one '_'.
var lpSafe = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_' || c == '.'
	}
	return t
}()

// lpFlushAt is the size at which the assembled text is handed to the
// destination writer. A line that runs past it (a wide constraint) is
// handed over in pieces, so the buffer, allocated with lpFlushAt of
// headroom, never grows and an export allocates the same three objects
// whatever the model's size.
const lpFlushAt = 32 << 10

// lpWriter assembles the LP text in buf and hands it to w in chunks of
// about lpFlushAt bytes. names holds every declared variable's LP name,
// formatted once: variable v's is names[offs[v]:offs[v+1]]. The first
// write error is kept and ends the export early.
type lpWriter struct {
	w     io.Writer
	buf   []byte
	names []byte
	offs  []int32
	err   error
}

func (w *lpWriter) flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// flushFull flushes once the buffer has passed lpFlushAt.
func (w *lpWriter) flushFull() error {
	if len(w.buf) >= lpFlushAt {
		return w.flush()
	}
	return w.err
}

// name appends v's LP name: a copy from the table for a declared
// variable, the "x<index>" fallback otherwise.
func (w *lpWriter) name(v Var) {
	if int(v) >= 0 && int(v) < len(w.offs)-1 {
		w.buf = append(w.buf, w.names[w.offs[v]:w.offs[v+1]]...)
		return
	}
	w.buf = appendUndeclaredLPName(w.buf, v)
}

// WriteLP serialises the model in the CPLEX LP file format, so that
// formulations can be inspected or handed to an external solver (the
// paper used Gurobi, which reads this format).
//
// Each variable is written as its diagnostic name with every rune
// outside [A-Za-z0-9_.] replaced by '_' (an invalid UTF-8 byte counts
// as one rune), a '_' in front when the name would otherwise start
// with a digit or '.', which LP readers reject, and "_v<index>" after
// it to keep names unique. Newlines in the model name are written as
// spaces so the header stays one comment line.
func (m *Model) WriteLP(w io.Writer) error {
	if m.err != nil {
		return m.err
	}
	names, offs, err := m.lpNames()
	if err != nil {
		return err
	}
	lw := &lpWriter{w: w, buf: make([]byte, 0, 2*lpFlushAt), names: names, offs: offs}
	lw.buf = append(lw.buf, `\ Model: `...)
	for i := 0; i < len(m.Name); i++ {
		c := m.Name[i]
		if c == '\n' || c == '\r' {
			c = ' '
		}
		lw.buf = append(lw.buf, c)
	}
	lw.buf = append(lw.buf, " ("...)
	lw.buf = strconv.AppendInt(lw.buf, int64(m.NumVars()), 10)
	lw.buf = append(lw.buf, " binaries, "...)
	lw.buf = strconv.AppendInt(lw.buf, int64(len(m.Constraints)), 10)
	lw.buf = append(lw.buf, " constraints)\nMinimize\n obj:"...)
	if len(m.Objective) == 0 {
		lw.buf = append(lw.buf, " 0"...)
		if m.NumVars() > 0 {
			// LP format needs at least one variable reference.
			lw.buf = append(lw.buf, ' ')
			lw.name(0)
			lw.buf = append(lw.buf, " - "...)
			lw.name(0)
		}
	} else {
		lw.terms(m.Objective)
	}
	lw.buf = append(lw.buf, "\nSubject To\n"...)
	row, lo := newCounter(), int32(0)
	for _, c := range m.Constraints {
		lw.buf = append(append(append(lw.buf, " c"...), row.digits()...), ':')
		row.next()
		terms := m.terms[lo:c.end]
		lo = c.end
		lw.terms(terms)
		if len(terms) == 0 {
			lw.buf = append(lw.buf, " 0"...)
		}
		lw.buf = append(append(append(lw.buf, ' '), c.Rel.String()...), ' ')
		lw.buf = append(strconv.AppendInt(lw.buf, int64(c.RHS), 10), '\n')
		if lw.flushFull() != nil {
			return lw.err
		}
	}
	lw.buf = append(lw.buf, "Binary\n"...)
	for v := 0; v < m.NumVars(); v++ {
		lw.buf = append(lw.buf, ' ')
		lw.name(Var(v))
		lw.buf = append(lw.buf, '\n')
		if lw.flushFull() != nil {
			return lw.err
		}
	}
	lw.buf = append(lw.buf, "End\n"...)
	return lw.flush()
}

// terms appends a linear expression, flushing mid-line once the buffer
// passes lpFlushAt.
func (w *lpWriter) terms(ts []Term) {
	for _, t := range ts {
		switch {
		case t.Coef == 1:
			w.buf = append(w.buf, " + "...)
		case t.Coef == -1:
			w.buf = append(w.buf, " - "...)
		case t.Coef < 0:
			w.buf = append(strconv.AppendInt(append(w.buf, " - "...), -int64(t.Coef), 10), ' ')
		default:
			w.buf = append(strconv.AppendInt(append(w.buf, " + "...), int64(t.Coef), 10), ' ')
		}
		w.name(t.Var)
		w.flushFull()
	}
}

// lpNames formats every declared variable's LP name once, into one byte
// table and its offsets: name v is names[offs[P+1+v]:offs[P+2+v]],
// where P is the number of name parts. The table's head holds every
// name part sanitised once (part i is names[offs[i]:offs[i+1]]), and
// each variable's name is assembled from those bytes. The table is sized
// up front from an upper bound (sanitising never lengthens a part), so
// it is allocated exactly once.
func (m *Model) lpNames() (names []byte, offs []int32, err error) {
	// The head, then per variable a '_' guard, the prefix, "_a_b_",
	// "_k" and "_v<index>".
	size := len(m.names) * (2 + decimalLen(int64(len(m.names))))
	for _, p := range m.parts {
		size += len(p)
	}
	for _, n := range m.names {
		size += 1 + len(m.parts[n.prefix])
		if n.a >= 0 {
			size += 3 + len(m.parts[n.a]) + len(m.parts[n.b])
		}
		if n.k >= 0 {
			size += 1 + decimalLen(int64(n.k))
		}
	}
	if size > math.MaxInt32 {
		return nil, nil, fmt.Errorf("ilp %s: LP names need %d bytes, more than an export can index", m.Name, size)
	}
	names = make([]byte, 0, size)
	offs = make([]int32, len(m.parts)+1+len(m.names)+1)
	for i, p := range m.parts {
		names = appendLPSafe(names, p)
		offs[i+1] = int32(len(names))
	}
	part := func(i int32) []byte { return names[offs[i]:offs[i+1]] }
	vars := offs[len(m.parts)+1:]
	vars[0] = int32(len(names))
	index := newCounter()
	for v, n := range m.names {
		prefix := part(n.prefix)
		if len(prefix) > 0 && (prefix[0] == '.' || '0' <= prefix[0] && prefix[0] <= '9') {
			names = append(names, '_')
		}
		names = append(names, prefix...)
		if !m.plain(n) {
			// "prefix[a,b]" or "prefix[a,b,k]": the brackets and
			// commas sanitise to '_'.
			names = append(append(names, '_'), part(n.a)...)
			names = append(append(names, '_'), part(n.b)...)
			if n.k >= 0 {
				names = strconv.AppendInt(append(names, '_'), int64(n.k), 10)
			}
			names = append(names, '_')
		}
		names = append(append(names, "_v"...), index.digits()...)
		index.next()
		vars[v+1] = int32(len(names))
	}
	return names, vars, nil
}

// decimalLen is the length of n written in base 10, sign included.
func decimalLen(n int64) int {
	l := 1
	if n < 0 {
		l++
		n = -n
	}
	for ; n >= 10; n /= 10 {
		l++
	}
	return l
}

// counter counts up from 0 in decimal digits, so writing consecutive
// indices costs an increment each instead of a conversion.
type counter struct {
	buf   [20]byte
	start int
}

func newCounter() counter {
	c := counter{start: len(counter{}.buf) - 1}
	c.buf[c.start] = '0'
	return c
}

// digits returns the current count; the slice is valid until next.
func (c *counter) digits() []byte { return c.buf[c.start:] }

// next adds one.
func (c *counter) next() {
	i := len(c.buf) - 1
	for ; i >= c.start && c.buf[i] == '9'; i-- {
		c.buf[i] = '0'
	}
	if i < c.start {
		c.start--
		i = c.start
		c.buf[i] = '0'
	}
	c.buf[i]++
}

// appendUndeclaredLPName appends the LP name of a variable the model
// does not declare: VarName's "x<index>" fallback, sanitised.
func appendUndeclaredLPName(buf []byte, v Var) []byte {
	sign := len(buf) + 1
	buf = strconv.AppendInt(append(buf, 'x'), int64(v), 10)
	if v < 0 {
		buf[sign] = '_'
	}
	return strconv.AppendInt(append(buf, "_v"...), int64(v), 10)
}

// appendLPSafe appends s with every rune outside [A-Za-z0-9_.] replaced
// by '_', copying runs of safe bytes at once.
func appendLPSafe(buf []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf && lpSafe[c] {
			i++
			continue
		}
		buf = append(append(buf, s[start:i]...), '_')
		if c < utf8.RuneSelf {
			i++
		} else {
			_, size := utf8.DecodeRuneInString(s[i:])
			i += size
		}
		start = i
	}
	return append(buf, s[start:]...)
}
