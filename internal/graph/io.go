package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrEmptyInput is returned by Load for input with no bytes at all.
var ErrEmptyInput = errors.New("graph: empty input")

// Load reads a graph in either supported format: input that starts with
// the "%%MatrixMarket" banner (in any case) parses as MatrixMarket,
// anything else as an edge list.
func Load(r io.Reader) (*Graph, error) {
	const banner = "%%MatrixMarket"
	br := bufio.NewReader(r)
	head, err := br.Peek(len(banner))
	if len(head) == 0 {
		// A short-but-valid input yields head bytes alongside io.EOF; no
		// bytes at all means the input is empty or the read failed outright.
		if err == io.EOF {
			return nil, ErrEmptyInput
		}
		return nil, fmt.Errorf("graph: reading input: %w", err)
	}
	if strings.EqualFold(string(head), banner) {
		return LoadMatrixMarket(br)
	}
	return LoadEdgeList(br)
}

// LoadEdgeList parses a whitespace-separated edge list: one "u v [weight]"
// per line, '#' or '%' starting a comment line. Node ids must be
// non-negative integers; the node count is max id + 1 (or the optional
// declared count, whichever is larger). Missing weights default to 1.
func LoadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	type edge struct {
		u, v int
		w    float64
	}
	var edges []edge
	maxID := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: need at least 2 fields, got %q", line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", line, fields[0], err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %v", line, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", line)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", line, fields[2], err)
			}
			if w < 0 {
				return nil, fmt.Errorf("graph: line %d: negative weight %g", line, w)
			}
		}
		edges = append(edges, edge{u, v, w})
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	b := NewBuilder(maxID + 1)
	for _, e := range edges {
		b.AddEdge(e.u, e.v, e.w)
	}
	return b.Build(), nil
}

// SaveEdgeList writes the graph as a "u v weight" edge list with a header
// comment, the inverse of LoadEdgeList.
func (g *Graph) SaveEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.n, g.M()); err != nil {
		return err
	}
	for u := 0; u < g.n; u++ {
		dst, wt := g.Out(u)
		for k, v := range dst {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", u, v, wt[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
