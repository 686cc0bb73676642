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
		Consume(0, 0, 0, 0),
	} {
		got, err := DecodeRecord(r.Encode())
		if err != nil {
			t.Fatalf("decode %q: %v", r.Encode(), err)
		}
		if got != r {
			t.Errorf("round trip: got %+v, want %+v", got, r)
		}
	}
	// A reader's split and a channel's last task are re-derived, never
	// logged: their old forms are no record.
	for _, bad := range []string{"", "X 1", "C 1 2", "R x", "R 3", "F"} {
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
// — negatives and the extremes of int included.
func TestQuickEncodeIsTheFmtForm(t *testing.T) {
	f := func(input, uc, from, count int) bool {
		r := Consume(input, uc, from, count)
		return string(r.Encode()) == fmt.Sprintf("C %d %d %d %d", input, uc, from, count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, v := range []int{0, -1, math.MinInt, math.MaxInt} {
		if !f(v, v, v, v) {
			t.Errorf("Encode of %d is not its fmt form", v)
		}
	}
}

// FuzzDecodeRecord: DecodeRecord never panics, and whatever it accepts
// re-encodes to bytes that decode to the same record.
func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range []string{"C 1 2 3 4", "R 3", "F", ""} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		got, err := DecodeRecord(r.Encode())
		if err != nil || got != r {
			t.Fatalf("%q decoded to %+v, whose encoding %q decodes to %+v, %v", data, r, r.Encode(), got, err)
		}
	})
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
