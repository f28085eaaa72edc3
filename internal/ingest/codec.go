// Package ingest is the durable streaming-ingest subsystem: a segmented
// CRC-checked write-ahead log with fsync batching, a Store that pairs the
// WAL with the in-memory chunked TSDB (crash-recovery replay, periodic
// checkpoint/truncation), and the remote-write wire codec the
// /api/v1/write endpoint speaks.
//
// The layering follows the codec/reader split of Prometheus-style
// remote-write implementations: codec.go defines the wire formats and
// decodes a push in place, store.go appends it, and httpapi owns the
// reading endpoint, which hands each request body to Store.Push. Pushers
// (the benchmark's write_read client, the tests) encode with EncodeBinary.
package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"

	"dio/internal/tsdb"
)

// TimeSeries is one series of a write request: a label set plus samples
// in ascending time order.
type TimeSeries struct {
	Labels  tsdb.Labels
	Samples []tsdb.Sample
}

// Content types negotiated on POST /api/v1/write. The binary codec is the
// compact framed form the bench client uses; JSON is the debuggable
// fallback (curl-able, but unable to carry NaN/Inf values).
const (
	ContentTypeBinary = "application/x-dio-write"
	ContentTypeJSON   = "application/json"
)

// ErrBadWritePayload is wrapped by every decode failure: framing, CRC,
// limits, and semantic validation (nameless series, unordered samples).
var ErrBadWritePayload = errors.New("ingest: bad write payload")

func badPayloadf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadWritePayload, fmt.Sprintf(format, args...))
}

// Decode limits: a single write request may not explode into unbounded
// memory no matter what the bytes claim.
const (
	maxSeriesPerRequest  = 100_000
	maxLabelsPerSeries   = 64
	maxSamplesPerSeries  = 100_000
	maxLabelLength       = 4096
	maxSamplesPerRequest = 2_000_000
)

// Binary wire format ("application/x-dio-write"):
//
//	4B  magic "DWR1"
//	uvarint series count; per series:
//	  uvarint label count; per label: uvarint len + bytes (name, value)
//	  uvarint sample count; per sample a zigzag-varint delta from the
//	  previous timestamp (from 0 for the first, so t0 itself), then the
//	  value as 8B little-endian IEEE-754 bits
//	4B  IEEE CRC-32 (big-endian) of everything after the magic
const binaryMagic = "DWR1"

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// EncodeBinary renders a write request in the binary wire format.
func EncodeBinary(series []TimeSeries) []byte {
	var b []byte
	b = append(b, binaryMagic...)
	b = binary.AppendUvarint(b, uint64(len(series)))
	for _, ts := range series {
		b = appendKey(b, ts.Labels)
		b = binary.AppendUvarint(b, uint64(len(ts.Samples)))
		prevT := int64(0)
		for _, s := range ts.Samples {
			b = binary.AppendUvarint(b, zigzag(s.T-prevT))
			prevT = s.T
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.V))
		}
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(b[len(binaryMagic):]))
	return append(b, sum[:]...)
}

// appendKey appends the key of ls to b. A series' key is its label region
// as DWR1 and the WAL's series record both encode it: a uvarint label
// count, then each name and value as a uvarint length and its bytes. Its
// varints are minimal, so a label set has exactly one key, and the WAL
// finds a known series by its key as it sits in the request body.
func appendKey(b []byte, ls tsdb.Labels) []byte {
	b = binary.AppendUvarint(b, uint64(len(ls)))
	for _, l := range ls {
		b = binary.AppendUvarint(b, uint64(len(l.Name)))
		b = append(b, l.Name...)
		b = binary.AppendUvarint(b, uint64(len(l.Value)))
		b = append(b, l.Value...)
	}
	return b
}

// uvarint reads the varint at b[*pos:] and moves *pos past it. A varint
// that is not minimal is refused: in a key it would give one label set a
// second key. scanKey and decode call it for every count, length and
// timestamp, so it is kept small enough to inline: it makes no call, and
// its error is the offset as a varintError.
func uvarint(b []byte, pos *int) (v uint64, err error) {
	p := *pos
	for s := uint(0); p < len(b) && s < 64; s += 7 {
		c := b[p]
		p++
		v |= uint64(c&0x7f) << s
		if c < 0x80 {
			// A zero last byte is not minimal; a tenth byte over 1
			// overflows 64 bits.
			if c == 0 && s > 0 || s == 63 && c > 1 {
				break
			}
			*pos = p
			return v, nil
		}
	}
	return 0, varintError(*pos)
}

// varintError is a truncated, overlong or non-minimal varint at an offset.
type varintError int

func (e varintError) Error() string {
	return fmt.Sprintf("%v: truncated or non-minimal varint at offset %d", ErrBadWritePayload, int(e))
}

// Is makes errors.Is(err, ErrBadWritePayload) hold, as it does for every
// other decode failure.
func (e varintError) Is(target error) bool { return target == ErrBadWritePayload }

// scanKey returns the length of the key at the start of b, checked
// against the decode limits, with label strings of at most maxLen bytes.
func scanKey(b []byte, maxLen uint64) (int, error) {
	pos := 0
	nLabels, err := uvarint(b, &pos)
	if err != nil {
		return 0, err
	}
	if nLabels == 0 || nLabels > maxLabelsPerSeries {
		return 0, badPayloadf("series has %d labels", nLabels)
	}
	for i := uint64(0); i < 2*nLabels; i++ {
		n, err := uvarint(b, &pos)
		if err != nil {
			return 0, err
		}
		if n > maxLen {
			return 0, badPayloadf("string of %d bytes exceeds the %d limit", n, maxLen)
		}
		if uint64(len(b)-pos) < n {
			return 0, badPayloadf("truncated label string")
		}
		pos += int(n)
	}
	return pos, nil
}

// appendLabels appends the label set of a scanned key to dst. str holds
// the key's bytes, and the label strings are slices of it.
func appendLabels(dst tsdb.Labels, key []byte, str string) tsdb.Labels {
	nLabels, n := binary.Uvarint(key)
	dst = slices.Grow(dst, int(nLabels))
	for ; nLabels > 0; nLabels-- {
		var pair [2]string
		for j := range pair {
			size, k := binary.Uvarint(key[n:])
			pair[j] = str[n+k : n+k+int(size)]
			n += k + int(size)
		}
		dst = append(dst, tsdb.Label{Name: pair[0], Value: pair[1]})
	}
	return dst
}

// keyLabels builds and checks the label set of a key nothing has checked
// yet: it must scan whole and pass validateSeries, as replay requires of
// a series record. idx names the series in the error.
func keyLabels(idx uint64, key []byte, maxLen uint64) (tsdb.Labels, error) {
	n, err := scanKey(key, maxLen)
	if err != nil {
		return nil, err
	}
	if n != len(key) {
		return nil, badPayloadf("series %d key has %d trailing bytes", idx, len(key)-n)
	}
	ls := appendLabels(nil, key, string(key))
	return ls, validateSeries(idx, TimeSeries{Labels: ls})
}

// wireSeries is one series of a decoded push: its key and samples, as
// they sit in the decoder's buffers, and the ref and labels WAL.log sets.
type wireSeries struct {
	key     []byte
	samples []tsdb.Sample
	ref     uint64
	labels  tsdb.Labels
}

// decoder holds one push between its read and its release. A binary body
// is parsed in place: each series' key is a slice of the body, and the
// samples share one arena. Only the WAL builds label sets, for keys it
// has not seen.
type decoder struct {
	body    bytes.Buffer
	series  []wireSeries
	samples []tsdb.Sample
}

// decode parses and checks a binary write request into d, replacing what
// d held: framing, CRC, limits, keys and sample order. A series' labels
// are checked only when the WAL first meets its key (keyLabels).
func (d *decoder) decode(raw []byte) error {
	d.series, d.samples = d.series[:0], d.samples[:0]
	if len(raw) < len(binaryMagic)+4 || string(raw[:len(binaryMagic)]) != binaryMagic {
		return badPayloadf("bad magic")
	}
	payload := raw[len(binaryMagic) : len(raw)-4]
	want := binary.BigEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return badPayloadf("CRC mismatch (got %08x, want %08x)", got, want)
	}
	pos := 0
	nSeries, err := uvarint(payload, &pos)
	if err != nil {
		return err
	}
	if nSeries > maxSeriesPerRequest {
		return badPayloadf("%d series exceeds the %d limit", nSeries, maxSeriesPerRequest)
	}
	// A series takes at least 4 bytes: the counts and two lengths.
	d.series = slices.Grow(d.series, int(min(nSeries, uint64(len(payload)-pos)/4)))
	totalSamples := uint64(0)
	for si := uint64(0); si < nSeries; si++ {
		n, err := scanKey(payload[pos:], maxLabelLength)
		if err != nil {
			return err
		}
		key := payload[pos : pos+n : pos+n]
		pos += n
		nSamples, err := uvarint(payload, &pos)
		if err != nil {
			return err
		}
		if nSamples > maxSamplesPerSeries {
			return badPayloadf("series %d has %d samples", si, nSamples)
		}
		if totalSamples += nSamples; totalSamples > maxSamplesPerRequest {
			return badPayloadf("request exceeds %d total samples", maxSamplesPerRequest)
		}
		if uint64(cap(d.samples)-len(d.samples)) < nSamples {
			// Room as if every remaining series were this one, capped by
			// the bytes left (a sample takes at least 9).
			d.samples = slices.Grow(d.samples, int(max(nSamples, min(nSamples*(nSeries-si), uint64(len(payload)-pos)/9))))
		}
		start := len(d.samples)
		prevT := int64(0)
		for i := uint64(0); i < nSamples; i++ {
			zz, err := uvarint(payload, &pos)
			if err != nil {
				return err
			}
			t := prevT + unzigzag(zz)
			if i > 0 && t <= prevT {
				return badPayloadf("series %d samples are not strictly time-ordered", si)
			}
			if len(payload)-pos < 8 {
				return badPayloadf("truncated value at offset %d", pos)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:]))
			pos += 8
			d.samples = append(d.samples, tsdb.Sample{T: t, V: v})
			prevT = t
		}
		d.series = append(d.series, wireSeries{key: key, samples: d.samples[start:len(d.samples):len(d.samples)]})
	}
	if pos != len(payload) {
		return badPayloadf("%d trailing bytes", len(payload)-pos)
	}
	return nil
}

// fromSeries hands a push over as []TimeSeries to d: the keys are encoded
// into d.body, and the samples stay the caller's. When the body grows,
// earlier keys still slice the old array, whose bytes nothing changes.
func (d *decoder) fromSeries(batch []TimeSeries) {
	for _, ts := range batch {
		start := d.body.Len()
		d.body.Write(appendKey(d.body.AvailableBuffer(), ts.Labels))
		d.series = append(d.series, wireSeries{key: d.body.Bytes()[start:], samples: ts.Samples})
	}
}

// read decodes the write request in r into d as DecodeWriteRequest reads
// it, but in place. A read error is wrapped with ErrBadWritePayload.
func (d *decoder) read(r io.Reader, contentType string) error {
	switch contentType {
	case ContentTypeBinary:
		if _, err := d.body.ReadFrom(r); err != nil {
			return fmt.Errorf("%w: read body: %w", ErrBadWritePayload, err)
		}
		return d.decode(d.body.Bytes())
	case ContentTypeJSON, "":
		batch, err := DecodeJSON(r) // nil on error
		d.fromSeries(batch)
		return err
	default:
		return badPayloadf("unsupported content type %q", contentType)
	}
}

// DecodeBinary parses and validates a binary write request. Label strings
// are slices of one string holding only the label bytes (no sample
// bytes), and label sets and samples share one backing array each;
// whoever keeps a label set beyond the request (the TSDB, the WAL) copies
// it, so nothing long-lived pins the request or the reused decoder.
func DecodeBinary(raw []byte) ([]TimeSeries, error) {
	d := getDecoder()
	defer d.release()
	if err := d.decode(raw); err != nil {
		return nil, err
	}
	keyBytes, nLabels, nSamples := 0, 0, 0
	for _, s := range d.series {
		keyBytes += len(s.key)
		nLabels += int(s.key[0]) // a label count is at most 64: one varint byte
		nSamples += len(s.samples)
	}
	var keys strings.Builder
	keys.Grow(keyBytes)
	for _, s := range d.series {
		keys.Write(s.key)
	}
	str := keys.String()
	labels := make(tsdb.Labels, 0, nLabels)
	samples := make([]tsdb.Sample, 0, nSamples)
	out := make([]TimeSeries, len(d.series))
	for i, s := range d.series {
		l, m := len(labels), len(samples)
		labels = appendLabels(labels, s.key, str[:len(s.key)])
		str = str[len(s.key):]
		samples = append(samples, s.samples...)
		out[i] = TimeSeries{Labels: labels[l:len(labels):len(labels)], Samples: samples[m:len(samples):len(samples)]}
		if err := validateSeries(uint64(i), out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// validateSeries enforces the semantic rules shared by both codecs.
func validateSeries(idx uint64, ts TimeSeries) error {
	for i := 1; i < len(ts.Labels); i++ {
		switch prev, cur := ts.Labels[i-1].Name, ts.Labels[i].Name; {
		case cur < prev:
			return badPayloadf("series %d labels are not sorted by name", idx)
		case cur == prev:
			return badPayloadf("series %d repeats label %q", idx, cur)
		}
	}
	if ts.Labels.Name() == "" {
		return badPayloadf("series %d has no metric name", idx)
	}
	for i := 1; i < len(ts.Samples); i++ {
		if ts.Samples[i].T <= ts.Samples[i-1].T {
			return badPayloadf("series %d samples are not strictly time-ordered", idx)
		}
	}
	return nil
}

// jsonWriteRequest is the JSON wire shape:
//
//	{"series":[{"labels":{"__name__":"up","job":"x"},"samples":[[1700000000000,1],...]}]}
type jsonWriteRequest struct {
	Series []jsonSeries `json:"series"`
}

type jsonSeries struct {
	Labels  map[string]string `json:"labels"`
	Samples [][2]float64      `json:"samples"`
}

// DecodeJSON parses and validates a JSON write request. A key the wire
// shape does not name, at the top or inside a series, is refused: a
// misspelled "series" would otherwise decode as an empty push.
func DecodeJSON(r io.Reader) ([]TimeSeries, error) {
	var req jsonWriteRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, badPayloadf("json decode: %v", err)
	}
	if len(req.Series) > maxSeriesPerRequest {
		return nil, badPayloadf("%d series exceeds the %d limit", len(req.Series), maxSeriesPerRequest)
	}
	out := make([]TimeSeries, 0, len(req.Series))
	total := 0
	for si, js := range req.Series {
		if len(js.Labels) == 0 || len(js.Labels) > maxLabelsPerSeries {
			return nil, badPayloadf("series %d has %d labels", si, len(js.Labels))
		}
		if len(js.Samples) > maxSamplesPerSeries {
			return nil, badPayloadf("series %d has %d samples", si, len(js.Samples))
		}
		if total += len(js.Samples); total > maxSamplesPerRequest {
			return nil, badPayloadf("request exceeds %d total samples", maxSamplesPerRequest)
		}
		ts := TimeSeries{Labels: tsdb.FromMap(js.Labels), Samples: make([]tsdb.Sample, 0, len(js.Samples))}
		for _, s := range js.Samples {
			ts.Samples = append(ts.Samples, tsdb.Sample{T: int64(s[0]), V: s[1]})
		}
		if err := validateSeries(uint64(si), ts); err != nil {
			return nil, err
		}
		out = append(out, ts)
	}
	return out, nil
}

// decoders recycles decoders across pushes. A decoder is free again once
// the push it holds is copied out or durable: the TSDB and the WAL copy
// what they keep. It is a bounded free list, not a sync.Pool: a GC empties
// a pool, and the next push then regrows its buffers. It holds one
// decoder per processor, since that many pushes decode at once.
var decoders = make(chan *decoder, runtime.GOMAXPROCS(0))

const maxPooledBody = 4 << 20

func getDecoder() *decoder {
	select {
	case d := <-decoders:
		return d
	default:
		return new(decoder)
	}
}

// release empties d, dropping its pointers into the push, and keeps it for
// reuse unless a buffer outgrew maxPooledBody bytes (a sample takes 16, a
// wireSeries 80), so that one outsized push does not pin its buffers.
func (d *decoder) release() {
	clear(d.series)
	if d.body.Cap() > maxPooledBody || 16*cap(d.samples) > maxPooledBody || 80*cap(d.series) > maxPooledBody {
		return
	}
	d.body.Reset()
	d.series, d.samples = d.series[:0], d.samples[:0]
	select {
	case decoders <- d:
	default:
	}
}

// DecodeWriteRequest dispatches on the request content type. A binary
// body is read into a reused decoder's buffer, which grows with the bytes
// received, never ahead of them, and copied out by DecodeBinary.
func DecodeWriteRequest(r io.Reader, contentType string) ([]TimeSeries, error) {
	switch contentType {
	case ContentTypeBinary:
		d := getDecoder()
		defer d.release()
		if _, err := d.body.ReadFrom(r); err != nil {
			return nil, err
		}
		return DecodeBinary(d.body.Bytes())
	case ContentTypeJSON, "":
		return DecodeJSON(r)
	default:
		return nil, badPayloadf("unsupported content type %q", contentType)
	}
}
