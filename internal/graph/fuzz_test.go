package graph

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

// fuzzBound keeps CSR construction in fuzzing affordable: inputs are
// arbitrary, so vertex counts are capped before allocating offset arrays.
const fuzzBound = 1 << 15

// FuzzParseEdgeList covers the text ingest path: ReadText must never
// panic, must validate vertex ids against a declared header, and anything
// it accepts must survive a WriteText/ReadText round trip unchanged.
func FuzzParseEdgeList(f *testing.F) {
	seeds := []string{
		"# vertices 4 edges 2\n0 1 5\n2 3 1\n",
		"0 1\n1 2 3\n",
		"",
		"# a comment\n\n3 1 7\n",
		"# vertices 3 edges 1\n0 2\n",
		"# vertices 1 edges 1\n0 5\n",          // id out of declared range
		"# vertices 2 edges 1000000000\n0 1\n", // lying header count
		"a b\n",
		"1\n",
		"0 1 2 3\n",
		"0 1 notanumber\n",
		"4294967296 0\n", // id overflows uint32
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; crashing is not
		}
		if n < 0 {
			t.Fatalf("accepted input with negative vertex count %d", n)
		}
		for _, e := range edges {
			if int(e.Src) >= n || int(e.Dst) >= n {
				t.Fatalf("accepted edge %v outside declared vertex range %d", e, n)
			}
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, n, edges); err != nil {
			t.Fatalf("WriteText on accepted input: %v", err)
		}
		n2, edges2, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if n2 != n || len(edges2) != len(edges) {
			t.Fatalf("round trip changed shape: (%d,%d) -> (%d,%d)", n, len(edges), n2, len(edges2))
		}
		for i := range edges {
			if edges[i] != edges2[i] {
				t.Fatalf("round trip changed edge %d: %v -> %v", i, edges[i], edges2[i])
			}
		}
	})
}

// FuzzEdgeListIO is the cross-codec oracle: any input the text reader
// accepts must survive text→binary→text unchanged, and any input it
// rejects for a content reason must be rejected with a typed *ParseError
// carrying a plausible 1-based line number that appears in the message.
func FuzzEdgeListIO(f *testing.F) {
	seeds := []string{
		"# vertices 4 edges 2\n0 1 5\n2 3 1\n",
		"0 1\n1 2 3\n",
		"",
		"# vertices 3 edges 1\n\n0 2 -4\n",
		"0 1 x\n",
		"0\n",
		"# vertices 1 edges 1\n0 5\n",
		"9999999999 0\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges, err := ReadText(bytes.NewReader(data))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				// From an in-memory reader the only non-content failure is
				// the scanner's token limit; everything else must be typed.
				if !errors.Is(err, bufio.ErrTooLong) {
					t.Fatalf("ReadText rejection is not a *ParseError: %v", err)
				}
				return
			}
			if pe.Line < 1 {
				t.Fatalf("ParseError with non-positive line %d: %v", pe.Line, pe)
			}
			if lines := bytes.Count(data, []byte("\n")) + 1; pe.Line > lines {
				t.Fatalf("ParseError line %d beyond input's %d lines", pe.Line, lines)
			}
			if !strings.Contains(pe.Error(), "line ") || !strings.Contains(pe.Error(), pe.Reason) {
				t.Fatalf("ParseError message lost its context: %q", pe.Error())
			}
			return
		}
		if n > fuzzBound || len(edges) > fuzzBound {
			t.Skip("valid but too large to round-trip affordably under fuzzing")
		}
		var bin bytes.Buffer
		if err := WriteBinary(&bin, n, edges); err != nil {
			t.Fatalf("WriteBinary on accepted input: %v", err)
		}
		bn, bedges, err := ReadBinary(&bin)
		if err != nil {
			t.Fatalf("binary round trip rejected: %v", err)
		}
		var txt bytes.Buffer
		if err := WriteText(&txt, bn, bedges); err != nil {
			t.Fatalf("WriteText after binary trip: %v", err)
		}
		tn, tedges, err := ReadText(&txt)
		if err != nil {
			t.Fatalf("text round trip after binary trip rejected: %v", err)
		}
		if tn != n || len(tedges) != len(edges) {
			t.Fatalf("cross-codec trip changed shape: (%d,%d) -> (%d,%d)", n, len(edges), tn, len(tedges))
		}
		for i := range edges {
			if edges[i] != tedges[i] {
				t.Fatalf("cross-codec trip changed edge %d: %v -> %v", i, edges[i], tedges[i])
			}
		}
	})
}

// FuzzLoadCSR covers the binary ingest path through CSR construction:
// ReadBinary must never panic or overallocate on hostile headers, and a
// CSR built from any accepted input must satisfy its structural
// invariants (monotone offsets, consistent edge count, row/degree
// agreement).
func FuzzLoadCSR(f *testing.F) {
	seed := func(n int, edges EdgeList) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, n, edges); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(4, EdgeList{{Src: 0, Dst: 1, W: 5}, {Src: 2, Dst: 3, W: 1}}))
	f.Add(seed(1, nil))
	f.Add(seed(3, EdgeList{{Src: 2, Dst: 0, W: -7}, {Src: 0, Dst: 2, W: 9}, {Src: 1, Dst: 1, W: 0}}))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x0c, 0x33, 0xc0})                                     // magic only
	f.Add([]byte{0x01, 0x0c, 0x33, 0xc0, 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // lying edge count
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range edges {
			if int(e.Src) >= n || int(e.Dst) >= n {
				t.Fatalf("ReadBinary accepted edge %v outside vertex range %d", e, n)
			}
		}
		if n > fuzzBound || len(edges) > fuzzBound {
			t.Skip("valid but too large to build affordably under fuzzing")
		}
		c := NewCSR(n, edges)
		if c.NumVertices() != n || c.NumEdges() != len(edges) {
			t.Fatalf("CSR shape (%d,%d) does not match input (%d,%d)",
				c.NumVertices(), c.NumEdges(), n, len(edges))
		}
		total := 0
		for u := 0; u < n; u++ {
			d := c.Degree(VertexID(u))
			if d < 0 {
				t.Fatalf("negative degree %d at vertex %d (offsets not monotone)", d, u)
			}
			row, weights := c.Row(VertexID(u))
			if len(row) != d || len(weights) != d {
				t.Fatalf("vertex %d: Row length %d/%d vs Degree %d", u, len(row), len(weights), d)
			}
			total += d
		}
		if total != len(edges) {
			t.Fatalf("degrees sum to %d, want %d", total, len(edges))
		}
		back := c.Edges()
		if len(back) != len(edges) {
			t.Fatalf("Edges() returned %d edges, want %d", len(back), len(edges))
		}
		// Reverse orientation must preserve the edge multiset size too.
		if r := NewReverseCSR(n, edges); r.NumEdges() != len(edges) {
			t.Fatalf("reverse CSR has %d edges, want %d", r.NumEdges(), len(edges))
		}
	})
}

// FuzzPatchRows drives PatchRows with fuzzer-shaped changes: the input is
// a vertex count, then 4-byte records (op, src, dst, weight) that add an
// edge to the pending add or remove list, or patch — off the newest CSR
// or, branching, off the one before it. After every patch every CSR of
// the chain must still present its own list, the newest the patched one.
func FuzzPatchRows(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 9, 0, 1, 3, 4, 2, 0, 0, 0, 1, 1, 2, 0, 0, 1, 2, 7, 2, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{3, 0, 0, 1, 1, 0, 0, 2, 2, 2, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 5, 3, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%24)
		chain := []patchedCSR{{NewCSR(n, nil), nil}}
		var remove, add EdgeList
		for data = data[1:]; len(data) >= 4 && len(chain) < 48; data = data[4:] {
			e := Edge{Src: VertexID(int(data[1]) % n), Dst: VertexID(int(data[2]) % n), W: Weight(int8(data[3]))}
			switch op := data[0] % 4; op {
			case 0:
				add = append(add, e)
			case 1:
				remove = append(remove, e)
			default:
				from := chain[len(chain)-1]
				if op == 3 && len(chain) > 1 {
					from = chain[len(chain)-2]
				}
				remove, add = remove.Canonicalize(), add.Canonicalize()
				c, _ := PatchRows(from.c, remove, add)
				chain = append(chain, patchedCSR{c, Patch(from.want, remove, add)})
				remove, add = nil, nil
				for i, pc := range chain {
					if err := csrPresents(pc.c, n, pc.want); err != nil {
						t.Fatalf("CSR %d of %d: %v", i, len(chain), err)
					}
				}
			}
		}
	})
}
