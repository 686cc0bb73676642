package ops

import (
	"encoding/binary"
	"fmt"
	"strings"

	"quokka/internal/batch"
	"quokka/internal/spill"
)

// Chain is the spec of a fused narrow chain: operators a plan joins by
// Direct edges at equal parallelism, run as one operator in one task. Each
// member's output batches go to the next member as they come, with no
// concat between them. Member 0 reads the stage's inputs; the others read
// input 0.
type Chain struct{ Members []Spec }

// Name joins the members' names with "▸".
func (s Chain) Name() string {
	names := make([]string, len(s.Members))
	for i, m := range s.Members {
		names[i] = m.Name()
	}
	return strings.Join(names, "▸")
}

// New implements Spec.
func (s Chain) New(channel, channels int) Operator {
	c := &chainOp{ops: make([]Operator, len(s.Members)), bufs: make([][]*batch.Batch, len(s.Members))}
	for i, m := range s.Members {
		c.ops[i] = m.New(channel, channels)
	}
	return c
}

// chainOp runs a Chain, forwarding Snapshot/Restore to its stateful members
// and spill handles to its spillable ones.
type chainOp struct {
	ops  []Operator
	bufs [][]*batch.Batch // bufs[i]: member i's outputs of the current call, reused
}

// Consume implements Operator. The returned slice is the chain's scratch,
// valid until its next call.
func (c *chainOp) Consume(input int, b *batch.Batch) ([]*batch.Batch, error) {
	outs, err := c.ops[0].Consume(input, b)
	if err != nil {
		return nil, err
	}
	return c.feed(1, outs)
}

// feed runs bs through members from.. and returns the last one's outputs. A
// level's scratch lets go of its batches once the next member took them.
func (c *chainOp) feed(from int, bs []*batch.Batch) ([]*batch.Batch, error) {
	for i := from; i < len(c.ops) && len(bs) > 0; i++ {
		next := c.bufs[i][:0]
		for _, b := range bs {
			o, err := c.ops[i].Consume(0, b)
			if err != nil {
				return nil, err
			}
			next = append(next, o...)
		}
		if i > from {
			clear(bs)
		}
		c.bufs[i], bs = next, next
	}
	return bs, nil
}

// Finalize implements Operator: member i's final output runs through the
// members after it before member i+1 finalizes, the order separate stages
// would see it in.
func (c *chainOp) Finalize() ([]*batch.Batch, error) {
	var out []*batch.Batch
	for i, op := range c.ops {
		fin, err := op.Finalize()
		if err == nil {
			fin, err = c.feed(i+1, fin)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, fin...)
	}
	return out, nil
}

// Snapshot implements Snapshotter: the stateful members' snapshots in
// order, each length-prefixed; nil when no member has state.
func (c *chainOp) Snapshot() ([]byte, error) {
	var out []byte
	for _, op := range c.ops {
		if sn, ok := op.(Snapshotter); ok {
			data, err := sn.Snapshot()
			if err != nil {
				return nil, err
			}
			out = append(binary.AppendUvarint(out, uint64(len(data))), data...)
		}
	}
	return out, nil
}

// Restore implements Snapshotter.
func (c *chainOp) Restore(data []byte) error {
	for i, op := range c.ops {
		if sn, ok := op.(Snapshotter); ok {
			n, k := binary.Uvarint(data)
			if k <= 0 || uint64(len(data)-k) < n {
				return fmt.Errorf("ops: chain snapshot truncated at member %d", i)
			}
			if err := sn.Restore(data[k : k+int(n)]); err != nil {
				return err
			}
			data = data[k+int(n):]
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("ops: chain snapshot has %d trailing bytes", len(data))
	}
	return nil
}

// StateBytes implements Snapshotter.
func (c *chainOp) StateBytes() (n int64) {
	for _, op := range c.ops {
		if sn, ok := op.(Snapshotter); ok {
			n += sn.StateBytes()
		}
	}
	return n
}

// SetSpill implements Spillable: each spillable member spills under its
// own handle inside the channel's namespace.
func (c *chainOp) SetSpill(o *spill.Op) {
	for i, op := range c.ops {
		if sb, ok := op.(Spillable); ok {
			sb.SetSpill(o.Member(i))
		}
	}
}

// DropSpill implements Spillable.
func (c *chainOp) DropSpill() {
	for _, op := range c.ops {
		if sb, ok := op.(Spillable); ok {
			sb.DropSpill()
		}
	}
}
