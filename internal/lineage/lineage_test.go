package lineage

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTaskNameRoundTrip(t *testing.T) {
	n := TaskName{Stage: 2, Channel: 7, Seq: 31}
	if n.String() != "2.7.31" {
		t.Errorf("String = %q", n.String())
	}
	got, err := ParseTaskName(n.String())
	if err != nil || got != n {
		t.Errorf("ParseTaskName = %v, %v", got, err)
	}
	if _, err := ParseTaskName("garbage"); err == nil {
		t.Error("want parse error")
	}
	if n.ChannelID() != (ChannelID{2, 7}) {
		t.Error("ChannelID wrong")
	}
}

func TestChannelIDRoundTrip(t *testing.T) {
	c := ChannelID{Stage: 1, Channel: 3}
	got, err := ParseChannelID(c.String())
	if err != nil || got != c {
		t.Errorf("ParseChannelID = %v, %v", got, err)
	}
	if _, err := ParseChannelID("x"); err == nil {
		t.Error("want parse error")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range []Record{
		Consume(1, 3, 10, 4),
		Read(17),
		Finalize(),
	} {
		got, err := DecodeRecord(r.Encode())
		if err != nil {
			t.Fatalf("decode %q: %v", r.Encode(), err)
		}
		if got != r {
			t.Errorf("round trip: got %+v, want %+v", got, r)
		}
	}
	for _, bad := range []string{"", "X 1", "C 1 2", "R x"} {
		if _, err := DecodeRecord([]byte(bad)); err == nil {
			t.Errorf("DecodeRecord(%q) should fail", bad)
		}
	}
}

func TestRecordIsKBScale(t *testing.T) {
	// The whole point of write-ahead lineage: records are tiny.
	r := Consume(1, 255, 1<<20, 1<<10)
	if len(r.Encode()) > 64 {
		t.Errorf("lineage record is %d bytes; must stay tiny", len(r.Encode()))
	}
}

func TestWatermarkRoundTrip(t *testing.T) {
	w := Watermark{
		{Input: 0, UpChannel: 2}: 5,
		{Input: 1, UpChannel: 0}: 9,
		{Input: 0, UpChannel: 1}: 3,
	}
	got, err := DecodeWatermark(w.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Errorf("round trip: %v vs %v", got, w)
	}
	// Deterministic encoding: sorted keys.
	if string(w.Encode()) != "0:1:3;0:2:5;1:0:9" {
		t.Errorf("encoding = %q", w.Encode())
	}
	empty, err := DecodeWatermark(nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty watermark: %v, %v", empty, err)
	}
	if _, err := DecodeWatermark([]byte("a:b")); err == nil {
		t.Error("want error for malformed watermark")
	}
}

func TestWatermarkClone(t *testing.T) {
	w := Watermark{{0, 0}: 1}
	c := w.Clone()
	c[EdgeChannel{0, 0}] = 99
	if w[EdgeChannel{0, 0}] != 1 {
		t.Error("Clone must not share storage")
	}
}

// Property: record encoding round-trips for arbitrary non-negative values.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(input, uc, from, count uint16) bool {
		r := Consume(int(input), int(uc), int(from), int(count))
		got, err := DecodeRecord(r.Encode())
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Encode writes exactly the bytes of its fmt form, for any values
// — negatives and the extremes of int included — and any kind.
func TestQuickEncodeIsTheFmtForm(t *testing.T) {
	fmtForm := func(r Record) []byte {
		switch r.Kind {
		case KindConsume:
			return []byte(fmt.Sprintf("C %d %d %d %d", r.Input, r.UpChannel, r.FromSeq, r.Count))
		case KindRead:
			return []byte(fmt.Sprintf("R %d", r.Split))
		case KindFinalize:
			return []byte("F")
		}
		return nil
	}
	f := func(kind uint8, input, uc, from, count, split int) bool {
		r := Record{Kind: Kind(kind % 4), Input: input, UpChannel: uc, FromSeq: from, Count: count, Split: split}
		return string(r.Encode()) == string(fmtForm(r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, v := range []int{0, -1, math.MinInt, math.MaxInt} {
		if !f(0, v, v, v, v, v) || !f(1, v, v, v, v, v) {
			t.Errorf("Encode of %d is not its fmt form", v)
		}
	}
}

// Property: watermark encoding round-trips for arbitrary small maps.
func TestQuickWatermarkRoundTrip(t *testing.T) {
	f := func(pairs []uint16) bool {
		w := make(Watermark)
		for i := 0; i+2 < len(pairs); i += 3 {
			w[EdgeChannel{int(pairs[i] % 4), int(pairs[i+1] % 64)}] = int(pairs[i+2])
		}
		got, err := DecodeWatermark(w.Encode())
		return err == nil && reflect.DeepEqual(got, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
