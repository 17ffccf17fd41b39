package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/crypto"
)

// concat joins byte parts; the reference encodings below are written
// field by field from the crypto helpers, independently of the encoders.
func concat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func sampleTest() TestAnnounce {
	return TestAnnounce{
		Key: PoolKeyRef(4711),
		Pred: Predicate{
			Kind: PredReceivedJunkAgg, Instance: 3, VMax: -2.5,
			MsgID: crypto.HashOf([]byte("msg")), Pos: 7,
			KeyLo: 100, KeyHi: 4999, IDLo: NoNode, IDHi: 998,
		},
		Nonce:      []byte("pred-nonce-0001"),
		Commitment: crypto.HashOf([]byte("commitment")),
	}
}

func TestEncodingsPinned(t *testing.T) {
	test := sampleTest()
	p := test.Pred
	keyRef := concat([]byte("keyref"), crypto.Int64(int64(test.Key.Sensor)), crypto.Int64(int64(test.Key.PoolIndex)))
	pred := concat([]byte("pred"),
		crypto.Int64(int64(p.Kind)), crypto.Int64(int64(p.Instance)), crypto.Float64(p.VMax),
		p.MsgID[:], crypto.Int64(int64(p.Pos)), crypto.Int64(int64(p.KeyLo)), crypto.Int64(int64(p.KeyHi)),
		crypto.Int64(int64(p.IDLo)), crypto.Int64(int64(p.IDHi)))
	rec := NewRecord(9, 2, 41.5, crypto.KeyFromUint64(3), []byte("n"))
	recBytes := concat(crypto.Uint64(9), crypto.Uint64(2), crypto.Float64(41.5), rec.MAC[:])
	sensorRef := SensorKeyRef(12)
	seed := crypto.KeyFromUint64(99)
	cases := []struct {
		name      string
		got, want []byte
	}{
		{"KeyRef", test.Key.Encode(), keyRef},
		{"SensorKeyRef", sensorRef.Encode(), concat([]byte("keyref"), crypto.Int64(12), crypto.Int64(0))},
		{"Predicate", p.Encode(), pred},
		{"TestAnnounce", test.Encode(), concat([]byte("test"), keyRef, pred, test.Nonce, test.Commitment[:])},
		{"StartAnnounce", StartAnnounce{Nonce: []byte("q"), Instances: 100, L: 17}.Encode(),
			concat([]byte("start"), crypto.Uint64(100), crypto.Uint64(17), []byte("q"))},
		{"MinAnnounce", MinAnnounce{Nonce: []byte("c"), Mins: []float64{1.5, math.Inf(1)}}.Encode(),
			concat([]byte("min"), crypto.Float64(1.5), crypto.Float64(math.Inf(1)), []byte("c"))},
		{"RevocationAnnounce/key", RevocationAnnounce{KeyIndex: 31, Node: NoNode}.Encode(),
			concat([]byte("revoke"), crypto.Int64(31), crypto.Int64(int64(NoNode)), make([]byte, crypto.KeySize))},
		{"Record", rec.Encode(), recBytes},
		{"AggMsg", AggMsg{Records: []Record{rec, rec}}.encodeInner(), concat([]byte("agg"), recBytes, recBytes)},
		{"RevocationAnnounce/node", RevocationAnnounce{Node: 5, RingSeed: seed}.Encode(),
			concat([]byte("revoke"), crypto.Int64(0), crypto.Int64(5), seed[:])},
	}
	for _, c := range cases {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s encoding\n got %x\nwant %x", c.name, c.got, c.want)
		}
		if len(c.got) != cap(c.got) {
			t.Errorf("%s encoding: len %d, cap %d; want an exactly sized buffer", c.name, len(c.got), cap(c.got))
		}
	}
}

func TestTestAnnounceEncodeAllocatesOnce(t *testing.T) {
	test := sampleTest()
	allocs := testing.AllocsPerRun(100, func() { test.Encode() })
	if allocs > 1 {
		t.Fatalf("TestAnnounce.Encode allocates %.1f times, want at most 1", allocs)
	}
}
