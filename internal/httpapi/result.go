package httpapi

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"dio/internal/promql"
	"dio/internal/tsdb"
)

// maxPooledBody is the largest buffer bodyPool keeps, so one read over
// thousands of series does not pin its body for the life of the process.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeResult answers a query with the Prometheus result envelope for v,
// byte for byte what json.Encoder writes for it as maps and [2]any pairs
// (the oracle in result_test.go). The body is whole before the status goes
// out and leaves in one Write.
func writeResult(w http.ResponseWriter, v promql.Value) {
	bp := bodyPool.Get().(*[]byte)
	b := appendResult((*bp)[:0], v)
	writeBody(w, http.StatusOK, b)
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyPool.Put(bp)
	}
}

// appendResult appends {"status":"success","data":{"resultType":…,"result":…}}
// and a newline; a result that is not a number or series is a bare string.
func appendResult(b []byte, v promql.Value) []byte {
	b = append(b, `{"status":"success","data":{"resultType":"`...)
	switch x := v.(type) {
	case promql.Scalar:
		b = appendPoint(append(b, `scalar","result":`...), x.T, x.V)
	case promql.Vector:
		b = append(b, `vector","result":[`...)
		for i, s := range x {
			b = appendPoint(append(appendLabels(comma(b, i), s.Labels), `,"value":`...), s.T, s.V)
			b = append(b, '}')
		}
		b = append(b, ']')
	case promql.Matrix:
		b = append(b, `matrix","result":[`...)
		for i, s := range x {
			b = append(appendLabels(comma(b, i), s.Labels), `,"values":[`...)
			for j, p := range s.Samples {
				b = appendPoint(comma(b, j), p.T, p.V)
			}
			b = append(b, "]}"...)
		}
		b = append(b, ']')
	default:
		b = appendString(append(b, `string","result":`...), promql.FormatValue(v))
	}
	return append(b, "}}\n"...)
}

func comma(b []byte, i int) []byte {
	if i > 0 {
		return append(b, ',')
	}
	return b
}

// appendLabels opens a series object with its "metric" member. Labels are
// stored sorted by name, the key order encoding/json gives a map.
func appendLabels(b []byte, ls tsdb.Labels) []byte {
	b = append(b, `{"metric":{`...)
	for i, l := range ls {
		b = appendString(append(appendString(comma(b, i), l.Name), ':'), l.Value)
	}
	return append(b, '}')
}

// appendPoint writes [seconds,"value"]: t through appendSeconds and v as
// strconv.FormatFloat(v, 'g', -1, 64).
func appendPoint(b []byte, t int64, v float64) []byte {
	b = append(appendSeconds(append(b, '['), t), ',', '"')
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '"', ']')
}

// appendSeconds writes t ms as encoding/json writes float64(t)/1000 (a
// non-zero |t|/1000 lies between 1e-3 and 1e16, where it uses 'f'). Below
// 1e15 ms the exact value has at most three decimals and 15 significant
// digits, so it is the shortest form that round-trips: it is written as
// integers, with trailing zeros of the milliseconds dropped.
func appendSeconds(b []byte, t int64) []byte {
	if t < 0 || t >= 1e15 {
		return strconv.AppendFloat(b, float64(t)/1000, 'f', -1, 64)
	}
	b = strconv.AppendInt(b, t/1000, 10)
	ms := t % 1000
	if ms == 0 {
		return b
	}
	frac := [4]byte{'.', byte('0' + ms/100), byte('0' + ms/10%10), byte('0' + ms%10)}
	n := len(frac)
	for frac[n-1] == '0' {
		n--
	}
	return append(b, frac[:n]...)
}

// encoding/json writes control bytes as \b, \f, \n, \r, \t or \u00XX.
var (
	shortEscapes = [0x20]byte{'\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}
	hexDigits    = "0123456789abcdef"
)

// appendString writes s as encoding/json does with HTML escaping on.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		r, size := rune(c), 1
		if c >= utf8.RuneSelf {
			if r, size = utf8.DecodeRuneInString(s[i:]); size > 1 && r != 0x2028 && r != 0x2029 {
				i += size
				continue
			}
		} else if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch {
		case size > 1: // U+2028 or U+2029
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		case c >= utf8.RuneSelf: // invalid UTF-8
			b = append(b, `\ufffd`...)
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20 && shortEscapes[c] != 0:
			b = append(b, '\\', shortEscapes[c])
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
