// Package ingest is the durable streaming-ingest subsystem: a segmented
// CRC-checked write-ahead log with fsync batching, a Store that pairs the
// WAL with the in-memory chunked TSDB (crash-recovery replay, periodic
// checkpoint/truncation), and the remote-write wire codec + client the
// /api/v1/write endpoint speaks.
//
// The layering follows the client/codec/reader split of Prometheus-style
// remote-write implementations: codec.go defines the wire formats,
// client.go the pushing side, and httpapi owns the reading endpoint.
package ingest

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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
		b = binary.AppendUvarint(b, uint64(len(ts.Labels)))
		for _, l := range ts.Labels {
			b = binary.AppendUvarint(b, uint64(len(l.Name)))
			b = append(b, l.Name...)
			b = binary.AppendUvarint(b, uint64(len(l.Value)))
			b = append(b, l.Value...)
		}
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

// DecodeBinary parses and validates a binary write request. Label strings
// are slices of a few shared strings holding only the label bytes (no
// sample bytes), and label sets share a few backing arrays; whoever keeps
// a label set beyond the request (the TSDB, the WAL) copies it, so
// nothing long-lived pins the request.
func DecodeBinary(raw []byte) ([]TimeSeries, error) {
	if len(raw) < len(binaryMagic)+4 || string(raw[:len(binaryMagic)]) != binaryMagic {
		return nil, badPayloadf("bad magic")
	}
	payload := raw[len(binaryMagic) : len(raw)-4]
	want := binary.BigEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, badPayloadf("CRC mismatch (got %08x, want %08x)", got, want)
	}
	pos := 0
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, badPayloadf("truncated varint at offset %d", pos)
		}
		pos += n
		return v, nil
	}
	nSeries, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if nSeries > maxSeriesPerRequest {
		return nil, badPayloadf("%d series exceeds the %d limit", nSeries, maxSeriesPerRequest)
	}
	out := make([]TimeSeries, 0, nSeries)
	// Both arenas are sized as if every remaining series were this one
	// (capped by the bytes left) and are replaced, not grown, when a larger
	// series comes along: labelArena holds the label sets, labelBytes a
	// copy of each series' label region for the strings to slice.
	var labelArena []tsdb.Label
	var labelBytes strings.Builder
	// spans[i] is where name or value i starts and ends in the region.
	var spans [2 * maxLabelsPerSeries][2]int
	totalSamples := uint64(0)
	for si := uint64(0); si < nSeries; si++ {
		nLabels, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if nLabels == 0 || nLabels > maxLabelsPerSeries {
			return nil, badPayloadf("series %d has %d labels", si, nLabels)
		}
		start := pos
		for i := 0; i < 2*int(nLabels); i++ {
			n, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if n > maxLabelLength {
				return nil, badPayloadf("string of %d bytes exceeds the %d limit", n, maxLabelLength)
			}
			if uint64(len(payload)-pos) < n {
				return nil, badPayloadf("truncated string at offset %d", pos)
			}
			spans[i] = [2]int{pos - start, pos - start + int(n)}
			pos += int(n)
		}
		region := payload[start:pos]
		if labelBytes.Cap()-labelBytes.Len() < len(region) {
			labelBytes = strings.Builder{}
			labelBytes.Grow(max(len(region), min(len(region)*int(nSeries-si), len(payload)-start)))
		}
		labelBytes.Write(region)
		str := labelBytes.String()[labelBytes.Len()-len(region):]
		if cap(labelArena)-len(labelArena) < int(nLabels) {
			labelArena = make([]tsdb.Label, 0, max(nLabels, min(nLabels*(nSeries-si), uint64(len(payload)-pos)/2)))
		}
		ls := labelArena[len(labelArena) : len(labelArena) : len(labelArena)+int(nLabels)]
		for i := 0; i < 2*int(nLabels); i += 2 {
			name, value := spans[i], spans[i+1]
			ls = append(ls, tsdb.Label{Name: str[name[0]:name[1]], Value: str[value[0]:value[1]]})
		}
		labelArena = labelArena[:len(labelArena)+len(ls)]
		nSamples, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if nSamples > maxSamplesPerSeries {
			return nil, badPayloadf("series %d has %d samples", si, nSamples)
		}
		if totalSamples += nSamples; totalSamples > maxSamplesPerRequest {
			return nil, badPayloadf("request exceeds %d total samples", maxSamplesPerRequest)
		}
		samples := make([]tsdb.Sample, 0, nSamples)
		prevT := int64(0)
		for i := uint64(0); i < nSamples; i++ {
			zz, err := readUvarint()
			if err != nil {
				return nil, err
			}
			t := prevT + unzigzag(zz)
			if len(payload)-pos < 8 {
				return nil, badPayloadf("truncated value at offset %d", pos)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:]))
			pos += 8
			samples = append(samples, tsdb.Sample{T: t, V: v})
			prevT = t
		}
		ts := TimeSeries{Labels: ls, Samples: samples}
		if err := validateSeries(si, ts); err != nil {
			return nil, err
		}
		out = append(out, ts)
	}
	if pos != len(payload) {
		return nil, badPayloadf("%d trailing bytes", len(payload)-pos)
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

// DecodeJSON parses and validates a JSON write request.
func DecodeJSON(r io.Reader) ([]TimeSeries, error) {
	var req jsonWriteRequest
	dec := json.NewDecoder(r)
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

// DecodeWriteRequest dispatches on the request content type.
func DecodeWriteRequest(r io.Reader, contentType string) ([]TimeSeries, error) {
	switch contentType {
	case ContentTypeBinary:
		raw, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		return DecodeBinary(raw)
	case ContentTypeJSON, "":
		return DecodeJSON(r)
	default:
		return nil, badPayloadf("unsupported content type %q", contentType)
	}
}
