package recovery

// FuzzWALDecode feeds arbitrary byte streams to the WAL decoder. The
// properties under test:
//
//  1. Clean failure: no input panics, hangs, or demands an absurd
//     allocation (the decoder bounds-checks every primitive and caps
//     record bodies).
//  2. Idempotence: whatever decodes must re-encode — through the same
//     Append*Rec functions the store uses — and decode again to the
//     identical records, with the same clean-marker verdict.
//  3. Tail discipline: goodLen always points at a record boundary, so
//     truncating to it and re-decoding yields the same records with no
//     torn tail left.
//
// The seed corpus is built from the encoder, so every record kind (a
// batch, which decodes to the records it carries, and a continuation
// marker, which decodes to itself, included) and the clean/torn
// distinctions are explored from the first run; the
// fuzzer then mutates those valid streams into near-valid ones —
// exactly what a crash mid-write or a corrupted disk produces.

import (
	"reflect"
	"testing"

	"locksafe/internal/model"
)

func reencode(recs []Rec, clean bool) []byte {
	var b []byte
	for _, r := range recs {
		switch r.Kind {
		case recEvents:
			b = AppendEventsRec(b, r.Events, r.Tags)
		case recCompact:
			b = AppendCompactRec(b, r.Victims)
		case recStatus:
			b = AppendStatusRec(b, r.TID, r.Status)
		case recOpen:
			b = AppendOpenRec(b, r.Open)
		case recNext:
			b = AppendNextRec(b)
		}
	}
	if clean {
		b = AppendCleanRec(b)
	}
	return b
}

func FuzzWALDecode(f *testing.F) {
	var seed []byte
	seed = AppendOpenRec(seed, OpenRec{G: 3, Mirror: true, Name: "T4",
		Steps: []model.Step{model.LX("x"), model.W("x"), model.UX("x")}, Token: 1 << 40, Deadline: -7})
	seed = AppendEventsRec(seed, []model.Ev{{T: 3, S: model.LX("x")}, {T: 3, S: model.W("x")}}, []uint64{9, 10})
	seed = AppendCompactRec(seed, []int{0, 3})
	seed = AppendStatusRec(seed, 3, StatusCommitted)
	f.Add(seed)
	f.Add(AppendCleanRec(append([]byte(nil), seed...)))
	f.Add(seed[:len(seed)-3]) // torn tail
	f.Add([]byte{})
	batch := AppendBatchRec(AppendOpenRec(nil, OpenRec{G: 0, Name: "T1", Token: 1}), seed)
	f.Add(batch)
	f.Add(AppendCleanRec(append([]byte(nil), batch...)))
	f.Add(batch[:len(batch)-2])                           // torn batch
	f.Add(AppendBatchRec(nil, AppendBatchRec(nil, seed))) // nested batch
	run := AppendOpenRec(nil, OpenRec{G: 5, Run: true, Name: "R", Steps: []model.Step{model.LX("y"), model.UX("y")}, Token: 3})
	f.Add(run)                                                                              // a run's open: flag 0x2
	f.Add(AppendNextRec(AppendBatchRec(append([]byte(nil), run...), seed)))                 // sealed segment
	f.Add(AppendStatusRec(AppendNextRec(append([]byte(nil), seed...)), 3, StatusCommitted)) // non-final seal

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<20 {
			return
		}
		recs, clean, goodLen, err := DecodeWAL(b)
		if err != nil {
			return
		}
		if goodLen < 0 || goodLen > int64(len(b)) {
			t.Fatalf("goodLen %d out of range [0,%d]", goodLen, len(b))
		}

		// Idempotence through the store's own encoders.
		enc := reencode(recs, clean)
		recs2, clean2, goodLen2, err := DecodeWAL(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded stream: %v", err)
		}
		if clean2 != clean {
			t.Fatalf("clean verdict changed: %v -> %v", clean, clean2)
		}
		if !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("round trip changed records:\n got %+v\nwant %+v", recs2, recs)
		}
		if int(goodLen2) != len(enc)-cleanMarkerLen(clean) {
			t.Fatalf("re-encoded goodLen %d, want %d", goodLen2, len(enc)-cleanMarkerLen(clean))
		}

		// goodLen is a record boundary: truncating there re-decodes to
		// the same records, with nothing torn.
		recs3, clean3, goodLen3, err := DecodeWAL(b[:goodLen])
		if err != nil {
			t.Fatalf("decode of good prefix: %v", err)
		}
		if clean3 {
			t.Fatal("good prefix (marker stripped) claimed clean")
		}
		if goodLen3 != goodLen || !reflect.DeepEqual(recs3, recs) {
			t.Fatalf("good prefix decode diverged: len %d vs %d", goodLen3, goodLen)
		}
	})
}

// cleanMarkerLen is the encoded size of the clean-shutdown marker.
func cleanMarkerLen(present bool) int {
	if !present {
		return 0
	}
	return len(AppendCleanRec(nil))
}
