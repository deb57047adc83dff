package core

import (
	"repro/internal/relation"
	"repro/internal/runtime"
)

// Naive computes Q(R) by in-memory left-to-right hash joins. It is the
// correctness oracle for every MPC algorithm (and the RAM-model reference
// the paper compares against conceptually); it charges no cluster.
//
// The result's schema is the instance's canonical OutputSchema; annotations
// are ⊗-products of the participating tuples' annotations.
func Naive(in *Instance) *relation.Relation {
	if len(in.Rels) == 0 {
		out := relation.New("naive", relation.Schema{})
		out.Tuples = []relation.Tuple{{}}
		out.Annots = []int64{in.Ring.One}
		return out
	}
	acc := in.Rels[0].Clone()
	if acc.Annots == nil {
		acc.Annots = make([]int64, acc.Size())
		for i := range acc.Annots {
			acc.Annots[i] = in.Ring.One
		}
	}
	for i := 1; i < len(in.Rels); i++ {
		acc = naiveJoin(acc, in.Rels[i], in.Ring)
	}
	// Normalize column order to the canonical output schema.
	out := acc.Project([]relation.Attr(in.OutputSchema()))
	out.Name = "naive"
	return out
}

// naiveJoinSerialBelow is the probe-side size under which the hash join
// stays on the calling goroutine.
const naiveJoinSerialBelow = 1 << 12

// naiveJoin hash-joins a and b on their shared attributes; an unannotated
// b contributes the ring's One per tuple (a always carries its column).
// The build side is indexed once; the probe side is cut into contiguous
// chunks joined in parallel and concatenated in chunk order, so the result
// is identical to the serial probe for every worker count.
func naiveJoin(a, b *relation.Relation, ring relation.Semiring) *relation.Relation {
	shared := a.Schema.Intersect(b.Schema)
	aPos := a.Schema.Positions(shared)
	bPos := b.Schema.Positions(shared)
	bExtra := b.Schema.Minus(a.Schema)
	bExtraPos := b.Schema.Positions(bExtra)

	out := relation.New(a.Name+"⋈"+b.Name, a.Schema.Union(b.Schema))
	out.Annots = []int64{}

	idx := make(map[string][]int, b.Size())
	for i, t := range b.Tuples {
		//lint:ignore repoallochygiene sequential reference
		k := relation.KeyAt(t, bPos)
		idx[k] = append(idx[k], i)
	}

	n := len(a.Tuples)
	chunks := runtime.Parallelism()
	if n < naiveJoinSerialBelow || chunks > n {
		chunks = 1
	}
	type probeOut struct {
		tuples []relation.Tuple
		annots []int64
	}
	outs := make([]probeOut, chunks)
	per := (n + chunks - 1) / chunks
	runtime.Fork(chunks, func(w int) {
		lo, hi := w*per, (w+1)*per
		if hi > n {
			hi = n
		}
		var po probeOut
		for i := lo; i < hi; i++ {
			t := a.Tuples[i]
			//lint:ignore repoallochygiene sequential reference
			k := relation.KeyAt(t, aPos)
			for _, j := range idx[k] {
				bt := b.Tuples[j]
				nt := make(relation.Tuple, 0, len(t)+len(bExtraPos))
				nt = append(nt, t...)
				for _, p := range bExtraPos {
					nt = append(nt, bt[p])
				}
				po.tuples = append(po.tuples, nt)
				bAnnot := ring.One
				if b.Annots != nil {
					bAnnot = b.Annots[j]
				}
				po.annots = append(po.annots, ring.Mul(a.Annot(i), bAnnot))
			}
		}
		outs[w] = po
	})
	for _, po := range outs {
		out.Tuples = append(out.Tuples, po.tuples...)
		out.Annots = append(out.Annots, po.annots...)
	}
	return out
}

// NaiveSemiJoinReduce removes all dangling tuples in-memory: it repeatedly
// semi-joins every relation against every other on their shared attributes
// until a fixpoint. Used by generators and tests to produce reduced
// instances; the MPC algorithms use the distributed primitives instead.
func NaiveSemiJoinReduce(in *Instance) *Instance {
	out := in.Clone()
	changed := true
	for changed {
		changed = false
		for i := range out.Rels {
			for j := range out.Rels {
				if i == j {
					continue
				}
				shared := out.Rels[i].Schema.Intersect(out.Rels[j].Schema)
				if len(shared) == 0 {
					continue
				}
				before := out.Rels[i].Size()
				out.Rels[i] = naiveSemiJoin(out.Rels[i], out.Rels[j], shared)
				if out.Rels[i].Size() != before {
					changed = true
				}
			}
		}
	}
	return out
}

func naiveSemiJoin(a, b *relation.Relation, shared relation.Schema) *relation.Relation {
	aPos := a.Schema.Positions(shared)
	bPos := b.Schema.Positions(shared)
	keys := make(map[string]bool, b.Size())
	for _, t := range b.Tuples {
		//lint:ignore repoallochygiene sequential reference
		keys[relation.KeyAt(t, bPos)] = true
	}
	out := relation.New(a.Name, a.Schema)
	out.Annots = []int64{}
	for i, t := range a.Tuples {
		//lint:ignore repoallochygiene sequential reference
		if keys[relation.KeyAt(t, aPos)] {
			out.Tuples = append(out.Tuples, t)
			out.Annots = append(out.Annots, a.Annot(i))
		}
	}
	return out
}
