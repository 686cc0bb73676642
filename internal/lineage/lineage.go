// Package lineage defines the task naming scheme and compact lineage
// records of §III-A of the paper.
//
// A task is named (stage, channel, sequence); its output partition carries
// the same name. Because tasks consume from exactly one upstream channel
// at a time, in order, a task's lineage compresses to four small integers:
// which input edge, which upstream channel, the first consumed sequence
// number and how many outputs were consumed. Reader tasks log the split
// they read; the final task of a channel logs a Finalize marker. This is
// the KB-sized information whose write-ahead logging replaces MB-sized
// spooling.
//
// Lineage records name *inputs*, never operator state: recovery assumes
// that re-feeding a fresh operator the logged input sequence reconstructs
// the exact pre-failure state. Every execution strategy must therefore be
// a pure function of the consumed inputs. This includes intra-operator
// parallelism: a partitioned operator assigns rows to state partitions by
// key hash modulo a partition count that is fixed per query (recorded in
// the GCS at seed time), so replay rebuilds byte-identical per-partition
// state no matter which worker replays or how its CPU pool interleaves
// the partitions.
package lineage

import (
	"fmt"
	"strconv"
)

// TaskName identifies a task and its output partition: the paper's
// (stage, channel, sequence number) tuple.
type TaskName struct {
	Stage   int
	Channel int
	Seq     int
}

// Channel returns the task's channel identity.
func (t TaskName) ChannelID() ChannelID { return ChannelID{t.Stage, t.Channel} }

// String renders the name as "stage.channel.seq". Task names are built on
// the engine's hottest paths (GCS keys, backup keys, mailbox slots), so
// this avoids fmt's reflection cost.
func (t TaskName) String() string {
	return strconv.Itoa(t.Stage) + "." + strconv.Itoa(t.Channel) + "." + strconv.Itoa(t.Seq)
}

// ParseTaskName parses the String form.
func ParseTaskName(s string) (TaskName, error) {
	var t TaskName
	if _, err := fmt.Sscanf(s, "%d.%d.%d", &t.Stage, &t.Channel, &t.Seq); err != nil {
		return TaskName{}, fmt.Errorf("lineage: bad task name %q: %w", s, err)
	}
	return t, nil
}

// ChannelID identifies one channel of one stage.
type ChannelID struct {
	Stage   int
	Channel int
}

// String renders the id as "stage.channel".
func (c ChannelID) String() string {
	return strconv.Itoa(c.Stage) + "." + strconv.Itoa(c.Channel)
}

// ParseChannelID parses the String form.
func ParseChannelID(s string) (ChannelID, error) {
	var c ChannelID
	if _, err := fmt.Sscanf(s, "%d.%d", &c.Stage, &c.Channel); err != nil {
		return ChannelID{}, fmt.Errorf("lineage: bad channel id %q: %w", s, err)
	}
	return c, nil
}

// Kind distinguishes the three task shapes.
type Kind uint8

// Record kinds.
const (
	// KindConsume is a normal task: consumed Count outputs starting at
	// FromSeq from upstream channel UpChannel on input edge Input.
	KindConsume Kind = iota
	// KindRead is an input-reader task: read split Split from the object
	// store.
	KindRead
	// KindFinalize is a channel's last task: all inputs were exhausted and
	// the operator's Finalize output was emitted.
	KindFinalize
)

// Record is the committed lineage of one task. Only the fields relevant to
// Kind are meaningful.
type Record struct {
	Kind      Kind
	Input     int // input edge index (KindConsume)
	UpChannel int // upstream channel within that edge (KindConsume)
	FromSeq   int // first upstream output consumed (KindConsume)
	Count     int // number of upstream outputs consumed (KindConsume)
	Split     int // object-store split (KindRead)
}

// Consume constructs a consume record.
func Consume(input, upChannel, fromSeq, count int) Record {
	return Record{Kind: KindConsume, Input: input, UpChannel: upChannel, FromSeq: fromSeq, Count: count}
}

// Read constructs a reader record.
func Read(split int) Record { return Record{Kind: KindRead, Split: split} }

// Finalize constructs a finalize record.
func Finalize() Record { return Record{Kind: KindFinalize} }

// Encode renders the record in its compact textual wire form. The form is
// what gets written into the GCS; its size (tens of bytes) is the whole
// point of write-ahead lineage.
func (r Record) Encode() []byte {
	switch r.Kind {
	case KindConsume:
		b := append(make([]byte, 0, 24), "C "...)
		b = append(strconv.AppendInt(b, int64(r.Input), 10), ' ')
		b = append(strconv.AppendInt(b, int64(r.UpChannel), 10), ' ')
		b = append(strconv.AppendInt(b, int64(r.FromSeq), 10), ' ')
		return strconv.AppendInt(b, int64(r.Count), 10)
	case KindRead:
		return strconv.AppendInt([]byte("R "), int64(r.Split), 10)
	case KindFinalize:
		return []byte("F")
	}
	return nil
}

// DecodeRecord parses the Encode form.
func DecodeRecord(data []byte) (Record, error) {
	if len(data) == 0 {
		return Record{}, fmt.Errorf("lineage: empty record")
	}
	s := string(data)
	switch s[0] {
	case 'C':
		var r Record
		r.Kind = KindConsume
		if _, err := fmt.Sscanf(s, "C %d %d %d %d", &r.Input, &r.UpChannel, &r.FromSeq, &r.Count); err != nil {
			return Record{}, fmt.Errorf("lineage: bad consume record %q: %w", s, err)
		}
		return r, nil
	case 'R':
		var r Record
		r.Kind = KindRead
		if _, err := fmt.Sscanf(s, "R %d", &r.Split); err != nil {
			return Record{}, fmt.Errorf("lineage: bad read record %q: %w", s, err)
		}
		return r, nil
	case 'F':
		return Record{Kind: KindFinalize}, nil
	}
	return Record{}, fmt.Errorf("lineage: unknown record %q", s)
}

// String implements fmt.Stringer.
func (r Record) String() string { return string(r.Encode()) }

// Watermark tracks, per (input edge, upstream channel), how many upstream
// outputs a consumer channel has consumed — the paper's "vector of length
// C" input requirement (§III-A). It is a fold of the channel's committed
// lineage records and is stored nowhere in the control store: it lives with
// the operator state it describes, in a task manager's memory or in a
// checkpoint mark (docs/contracts/control-store.md).
type Watermark map[EdgeChannel]int

// EdgeChannel is a (input edge, upstream channel) pair.
type EdgeChannel struct {
	Input     int
	UpChannel int
}

// Encode renders the watermark compactly, sorted for determinism.
func (w Watermark) Encode() []byte {
	if len(w) == 0 {
		return nil
	}
	keys := make([]EdgeChannel, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	// Insertion sort: vectors are tiny.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := make([]byte, 0, len(keys)*12)
	for i, k := range keys {
		if i > 0 {
			out = append(out, ';')
		}
		out = append(out, fmt.Sprintf("%d:%d:%d", k.Input, k.UpChannel, w[k])...)
	}
	return out
}

func less(a, b EdgeChannel) bool {
	if a.Input != b.Input {
		return a.Input < b.Input
	}
	return a.UpChannel < b.UpChannel
}

// DecodeWatermark parses the Encode form. Empty input yields an empty map.
func DecodeWatermark(data []byte) (Watermark, error) {
	w := make(Watermark)
	if len(data) == 0 {
		return w, nil
	}
	start := 0
	for i := 0; i <= len(data); i++ {
		if i != len(data) && data[i] != ';' {
			continue
		}
		var ec EdgeChannel
		var n int
		if _, err := fmt.Sscanf(string(data[start:i]), "%d:%d:%d", &ec.Input, &ec.UpChannel, &n); err != nil {
			return nil, fmt.Errorf("lineage: bad watermark %q: %w", data, err)
		}
		w[ec] = n
		start = i + 1
	}
	return w, nil
}

// Clone returns a copy of the watermark.
func (w Watermark) Clone() Watermark {
	out := make(Watermark, len(w))
	for k, v := range w {
		out[k] = v
	}
	return out
}
