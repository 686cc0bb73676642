// Package lineage defines the task naming scheme and compact lineage
// records of §III-A of the paper.
//
// A task is named (stage, channel, sequence); its output partition carries
// the same name. Because tasks consume from exactly one upstream channel
// at a time, in order, a task's lineage compresses to four small integers:
// which input edge, which upstream channel, the first consumed sequence
// number and how many outputs were consumed. This is the KB-sized
// information whose write-ahead logging replaces MB-sized spooling. Only
// that range is logged, because only it is decided at run time: a reader
// task's split follows from its sequence number and the plan, and a
// channel's last task from its inputs' done marks, so a retrace re-derives
// both the way the first run did.
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

// Record is the committed lineage of one consume task: it consumed Count
// outputs starting at FromSeq from upstream channel UpChannel on input edge
// Input — the one dependency a task decides at run time.
type Record struct {
	Input     int // input edge index
	UpChannel int // upstream channel within that edge
	FromSeq   int // first upstream output consumed
	Count     int // number of upstream outputs consumed
}

// Consume constructs a consume record.
func Consume(input, upChannel, fromSeq, count int) Record {
	return Record{Input: input, UpChannel: upChannel, FromSeq: fromSeq, Count: count}
}

// Encode renders the record in its compact textual wire form. The form is
// what gets written into the GCS; its size (tens of bytes) is the whole
// point of write-ahead lineage.
func (r Record) Encode() []byte {
	b := append(make([]byte, 0, 24), "C "...)
	b = append(strconv.AppendInt(b, int64(r.Input), 10), ' ')
	b = append(strconv.AppendInt(b, int64(r.UpChannel), 10), ' ')
	b = append(strconv.AppendInt(b, int64(r.FromSeq), 10), ' ')
	return strconv.AppendInt(b, int64(r.Count), 10)
}

// DecodeRecord parses the Encode form.
func DecodeRecord(data []byte) (Record, error) {
	var r Record
	if _, err := fmt.Sscanf(string(data), "C %d %d %d %d", &r.Input, &r.UpChannel, &r.FromSeq, &r.Count); err != nil {
		return Record{}, fmt.Errorf("lineage: bad record %q: %w", data, err)
	}
	return r, nil
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
