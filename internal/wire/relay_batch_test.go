package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// TestAckBatchRoundTripExtremes pins the wrapping-delta encoding: unsorted,
// duplicated and boundary frame IDs all survive a round trip through both
// decode paths.
func TestAckBatchRoundTripExtremes(t *testing.T) {
	cases := [][]uint64{
		{0},
		{math.MaxUint64},
		{math.MaxUint64, 0, math.MaxUint64}, // wraps both directions
		{5, 5, 5},                           // duplicates
		{1 << 63, 1, 1 << 62},               // wildly out of order
		{1, 2, 3, 4, 5, 6, 7, 8},            // the common sorted run
	}
	for _, ids := range cases {
		msg := &AckBatch{FrameIDs: ids}
		frame := AppendFrame(nil, msg)
		got, err := Read(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("Read(%v): %v", ids, err)
		}
		if !reflect.DeepEqual(msg, got) {
			t.Errorf("round trip changed %v into %#v", ids, got)
		}
		pooled, err := NewReader(bytes.NewReader(frame)).Next()
		if err != nil {
			t.Fatalf("Reader(%v): %v", ids, err)
		}
		if pb := pooled.(*AckBatch); !reflect.DeepEqual(msg.FrameIDs, pb.FrameIDs) {
			t.Errorf("pooled round trip changed %v into %v", ids, pb.FrameIDs)
		}
	}
}

// TestBatchDecodeRejectsHostile pins the decoder's defenses for the batch
// frames: empty batches, counts exceeding the body, overlong varints and
// reconstructed values outside int32 must all error, never panic or
// over-allocate.
func TestBatchDecodeRejectsHostile(t *testing.T) {
	// frame wraps a hand-built body (type byte included) in a length header.
	frame := func(body ...byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
	nodeOverflow := append([]byte{byte(TypeDataBatch), 1, 0, 0, 0, 0, 0, 0, 1},
		binary.AppendVarint(nil, int64(math.MaxInt32)+1)...)
	nodeOverflow = append(nodeOverflow, 0, 0)
	topicOverflow := []byte{byte(TypeDataBatch), 1, 0, 0}
	topicOverflow = binary.AppendVarint(topicOverflow, int64(math.MaxInt32)+1)
	topicOverflow = append(topicOverflow, 0, 0, 0, 0, 0, 0)
	cases := map[string][]byte{
		"empty ack batch":        frame(byte(TypeAckBatch), 0),
		"ack count exceeds body": frame(byte(TypeAckBatch), 0xC8, 0x01),
		"ack delta overlong":     frame(append([]byte{byte(TypeAckBatch), 1}, overlong...)...),
		"empty data batch":       frame(byte(TypeDataBatch), 0),
		"data count exceeds":     frame(byte(TypeDataBatch), 0xC8, 0x01),
		"data node overflows":    frame(nodeOverflow...),
		"data topic overflows":   frame(topicOverflow...),
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(raw)); err == nil {
				t.Error("Read accepted hostile frame")
			}
			if _, err := NewReader(bytes.NewReader(raw)).Next(); err == nil {
				t.Error("Reader accepted hostile frame")
			}
		})
	}
	// A well-formed count with a missing tail must surface as truncation.
	if _, err := Read(bytes.NewReader(frame(byte(TypeAckBatch), 2, 2))); !errors.Is(err, ErrTruncated) {
		t.Errorf("short ack batch: err = %v, want ErrTruncated", err)
	}
}

// TestBatchFramesAreSmaller pins the point of the exercise: batches of
// same-flow traffic cost a small fraction of one frame per DATA and per ACK.
func TestBatchFramesAreSmaller(t *testing.T) {
	const n = 64
	ab := &AckBatch{}
	legacyAcks := 0
	for i := uint64(0); i < n; i++ {
		id := uint64(3)<<48 | i // one broker's consecutive frame IDs
		ab.FrameIDs = append(ab.FrameIDs, id)
		legacyAcks += 13 // one ACK per frame: length, tag, frame ID
	}
	batched := len(AppendFrame(nil, ab))
	if batched*4 > legacyAcks {
		t.Errorf("AckBatch of %d = %dB, want <1/4 of %dB legacy", n, batched, legacyAcks)
	}

	db := &DataBatch{}
	legacyData := 0
	at := time.Unix(0, 1720000000123456789)
	for i := 0; i < 16; i++ {
		d := Data{
			FrameID: 3<<48 | uint64(i), PacketID: 7<<48 | uint64(i),
			Topic: 4, Source: 7, PublishedAt: at.Add(time.Duration(i) * time.Millisecond),
			Deadline: 150 * time.Millisecond,
			Dests:    []int32{2, 5, 9}, Path: []int32{7, 3},
			Payload: bytes.Repeat([]byte("x"), 32),
		}
		db.Frames = append(db.Frames, d)
		legacyData += len(AppendFrame(nil, &d))
	}
	if batched := len(AppendFrame(nil, db)); batched*2 > legacyData {
		t.Errorf("DataBatch of 16 = %dB, want <1/2 of %dB legacy", batched, legacyData)
	}
}
