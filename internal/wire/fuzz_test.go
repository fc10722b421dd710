package wire

// FuzzCodecRoundTrip feeds arbitrary bytes to the decoder as a frame
// payload, in both of a connection's states. The properties under test:
//
//  1. Clean failure: malformed payloads produce errors, never panics,
//     hangs, or out-of-bounds reads (the cursor bounds-checks every
//     primitive).
//  2. Idempotence: any payload that decodes must re-encode under the
//     binary codec and decode again to the identical value — the
//     decoder accepts nothing the encoder cannot faithfully ship.
//  3. The hello state admits one object: the same bytes read as the
//     first frame of a connection (the JSON hello or its answer) either
//     fail cleanly or decode to exactly one message — never a batch,
//     never a binary payload.
//
// The seed corpus is built from the encoder, so every op, code and
// flag combination round-trips from the first run, plus the two JSON
// hello frames; the fuzzer then mutates those valid frames into
// near-valid ones — exactly the byte-mangled frames a sick peer would
// produce.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
)

// fuzzFrame wraps payload bytes in the length header the Reader expects.
func fuzzFrame(payload []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	return append(out, payload...)
}

func fuzzReadReqs(stream []byte) ([]Request, error) {
	r := NewReader(bytes.NewReader(stream))
	r.SetCodec(CodecBinary)
	reqs, err := r.ReadRequests()
	if err != nil {
		return nil, err
	}
	out := make([]Request, len(reqs))
	copy(out, reqs) // the reader's slice is scratch
	return out, nil
}

func fuzzReadResps(stream []byte) ([]Response, error) {
	r := NewReader(bytes.NewReader(stream))
	r.SetCodec(CodecBinary)
	resps, err := r.ReadResponses()
	if err != nil {
		return nil, err
	}
	out := make([]Response, len(resps))
	copy(out, resps)
	return out, nil
}

func fuzzEncodeReqs(t *testing.T, reqs []Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetCodec(CodecBinary)
	if err := w.WriteRequests(reqs); err != nil {
		t.Fatalf("re-encode of decoded requests failed: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fuzzEncodeResps(t *testing.T, resps []Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetCodec(CodecBinary)
	if err := w.WriteResponses(resps); err != nil {
		t.Fatalf("re-encode of decoded responses failed: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzCodecRoundTrip(f *testing.F) {
	for _, req := range sampleRequests() {
		payload := []byte{binMagic, 1}
		payload, err := appendRequest(payload, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, resp := range sampleResponses() {
		payload := []byte{binMagic, 1}
		payload, err := appendResponse(payload, &resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	// One multi-message batch seed so the fuzzer explores count > 1.
	batch := []byte{binMagic, 3}
	for _, req := range sampleRequests()[:3] {
		var err error
		batch, err = appendRequest(batch, &req)
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(batch)
	f.Add([]byte(`{"id":1,"op":"hello","version":4}`))
	f.Add([]byte(`{"id":1,"ok":true,"version":4,"policy":"2PL"}`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrame {
			return
		}
		stream := fuzzFrame(payload)

		if reqs, err := fuzzReadReqs(stream); err == nil {
			again, err := fuzzReadReqs(fuzzEncodeReqs(t, reqs))
			if err != nil {
				t.Fatalf("binary re-decode: %v", err)
			}
			if !reflect.DeepEqual(again, reqs) {
				t.Fatalf("binary round trip changed requests:\n got %+v\nwant %+v", again, reqs)
			}
		}
		if resps, err := fuzzReadResps(stream); err == nil {
			again, err := fuzzReadResps(fuzzEncodeResps(t, resps))
			if err != nil {
				t.Fatalf("binary re-decode: %v", err)
			}
			if !reflect.DeepEqual(again, resps) {
				t.Fatalf("binary round trip changed responses:\n got %+v\nwant %+v", again, resps)
			}
		}

		// The same bytes as a connection's first frame: whatever decodes
		// is one message, from a payload that is JSON and not a batch.
		single := json.Valid(payload) && !bytes.HasPrefix(bytes.TrimSpace(payload), []byte("["))
		if reqs, err := NewReader(bytes.NewReader(stream)).ReadRequests(); err == nil && (len(reqs) != 1 || !single) {
			t.Fatalf("hello reader decoded %d requests from %q", len(reqs), payload)
		}
		if resps, err := NewReader(bytes.NewReader(stream)).ReadResponses(); err == nil && (len(resps) != 1 || !single) {
			t.Fatalf("hello reader decoded %d responses from %q", len(resps), payload)
		}
	})
}
