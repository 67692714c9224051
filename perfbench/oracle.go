package main

import (
	"fmt"
	"math/bits"

	"parlog"
)

// digraph is the benchmark's own copy of the edge set it hands the
// program. Every answer is checked against closures computed here by
// breadth-first search, never against another engine's output.
type digraph struct {
	n   int
	adj [][]int32
	has map[[2]int32]bool
}

func newDigraph(n int) *digraph {
	return &digraph{n: n, adj: make([][]int32, n), has: map[[2]int32]bool{}}
}

// add inserts edge a→b and reports whether it was new.
func (g *digraph) add(a, b int32) bool {
	if g.has[[2]int32{a, b}] {
		return false
	}
	g.has[[2]int32{a, b}] = true
	g.adj[a] = append(g.adj[a], b)
	return true
}

// remove deletes edge a→b and reports whether it was present.
func (g *digraph) remove(a, b int32) bool {
	if !g.has[[2]int32{a, b}] {
		return false
	}
	delete(g.has, [2]int32{a, b})
	out := g.adj[a]
	for i, d := range out {
		if d == b {
			out[i] = out[len(out)-1]
			g.adj[a] = out[:len(out)-1]
			break
		}
	}
	return true
}

func (g *digraph) edges() int { return len(g.has) }

// words is the length of one reachability bitset.
func (g *digraph) words() int { return (g.n + 63) / 64 }

// reach fills row (g.words() long, cleared by the caller) with the nodes
// reachable from s by one or more edges and returns their number.
func (g *digraph) reach(s int32, row []uint64, queue []int32) int {
	queue = append(queue[:0], s)
	count := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, d := range g.adj[u] {
			if row[d>>6]&(1<<(d&63)) == 0 {
				row[d>>6] |= 1 << (d & 63)
				count++
				queue = append(queue, d)
			}
		}
	}
	return count
}

// closure is the transitive closure of a digraph: one reachability bitset
// per source node, plus the closure's size and the number of rule firings
// semi-naive evaluation of the linear ancestor program must make.
type closure struct {
	n, words int
	reach    []uint64
	total    int
	firings  int64
}

// closureOf computes g's transitive closure. The firing count follows
// from Definition 4 for the linear program anc(X,Y) :- par(X,Y).
// anc(X,Y) :- par(X,Z), anc(Z,Y): the exit rule fires once per edge, and
// each anc(z,y) joins once with every edge into z, since a non-redundant
// evaluation uses each derived tuple exactly once.
func closureOf(g *digraph) *closure {
	c := &closure{n: g.n, words: g.words()}
	c.reach = make([]uint64, g.n*c.words)
	indeg := make([]int64, g.n)
	for e := range g.has {
		indeg[e[1]]++
	}
	var queue []int32
	c.firings = int64(g.edges())
	for s := 0; s < g.n; s++ {
		k := g.reach(int32(s), c.row(s), queue)
		c.total += k
		c.firings += indeg[s] * int64(k)
	}
	return c
}

func (c *closure) row(s int) []uint64 { return c.reach[s*c.words : (s+1)*c.words] }

// pairs lists the closure's (source, target) pairs.
func (c *closure) pairs() [][2]int32 {
	out := make([][2]int32, 0, c.total)
	for a := 0; a < c.n; a++ {
		for w, word := range c.row(a) {
			for ; word != 0; word &= word - 1 {
				out = append(out, [2]int32{int32(a), int32(w*64 + bits.TrailingZeros64(word))})
			}
		}
	}
	return out
}

// check compares an anc relation with the closure: same size, every row in
// the closure, no row twice. The node function maps a stored value back to
// its node number.
func (c *closure) check(rel *parlog.Relation, node func(parlog.Value) (int32, bool)) error {
	if rel == nil {
		return fmt.Errorf("anc missing from the output")
	}
	rows := rel.Rows()
	if len(rows) != c.total {
		return fmt.Errorf("anc has %d tuples, the closure has %d", len(rows), c.total)
	}
	seen := make([]uint64, len(c.reach))
	for _, t := range rows {
		a, b, ok := pairOf(t, node)
		if !ok {
			return fmt.Errorf("anc tuple %v names no node", t)
		}
		w, bit := int(a)*c.words+int(b>>6), uint64(1)<<(b&63)
		if c.reach[w]&bit == 0 {
			return fmt.Errorf("anc(%d, %d) is not in the closure", a, b)
		}
		if seen[w]&bit != 0 {
			return fmt.Errorf("anc(%d, %d) appears twice", a, b)
		}
		seen[w] |= bit
	}
	return nil
}

// checkAnswers compares the answers to the goal anc(src, X) with the nodes
// reachable from src, given as a bitset row with count members.
func checkAnswers(answers []parlog.Tuple, src int32, row []uint64, count int, node func(parlog.Value) (int32, bool)) error {
	if len(answers) != count {
		return fmt.Errorf("anc(%d, X) returned %d answers, want %d", src, len(answers), count)
	}
	seen := make([]uint64, len(row))
	for _, t := range answers {
		a, b, ok := pairOf(t, node)
		if !ok || a != src {
			return fmt.Errorf("anc(%d, X) returned %v", src, t)
		}
		bit := uint64(1) << (b & 63)
		if row[b>>6]&bit == 0 || seen[b>>6]&bit != 0 {
			return fmt.Errorf("anc(%d, X) returned %d wrongly or twice", src, b)
		}
		seen[b>>6] |= bit
	}
	return nil
}

// pairOf maps a binary tuple to its two node numbers.
func pairOf(t parlog.Tuple, node func(parlog.Value) (int32, bool)) (a, b int32, ok bool) {
	if len(t) != 2 {
		return 0, 0, false
	}
	a, okA := node(t[0])
	b, okB := node(t[1])
	return a, b, okA && okB
}

// popcount counts the members of a bitset.
func popcount(row []uint64) int {
	n := 0
	for _, w := range row {
		n += bits.OnesCount64(w)
	}
	return n
}
