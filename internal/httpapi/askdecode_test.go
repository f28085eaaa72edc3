package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// askBodies are ask bodies that askRequest.parse takes and ones that it
// leaves to json.Decoder: trailing bytes, other spellings of a key, escapes,
// non-ASCII, wrong types, truncation and bodies that are not objects.
var askBodies = []string{
	`{"question":"How many PDU sessions are currently active?"}`,
	`{"question":"q","explain":true,"analyze":false,"nocache":true}`,
	" \t\r\n{ \"question\" : \"q\" , \"nocache\" : false } ",
	`{}`, `{ }`, `{"question":""}`,
	`{"question":"a"}{"question":"b"}`, `{"question":"a"} trailing`, `{"question":"a"}]`,
	`{"question":"a","question":"b"}`, `{"nocache":true,"nocache":false}`, "{\"question\":\"\x7f\"}",
	// The bodies above are parse's; the ones below are json.Decoder's.
	`{"Question":"a"}`, `{"QUESTION":"a","NoCache":true}`, `{"question":"a","other":1}`,
	`{"question":"a\"b"}`, `{"question":"a\\b"}`, `{"question":"\u0041"}`, `{"ques\u0074ion":"a"}`,
	"{\"question\":\"caf\xc3\xa9\"}", "{\"question\":\"\xff\"}", "{\"question\":\"a\tb\"}",
	`{"question":null}`, `{"question":1}`, `{"question":true}`, `{"nocache":"true"}`, `{"nocache":1}`,
	`{"nocache":truex}`, `{"nocache":tru}`, `{"nocache":nul}`, `{"nocache":null}`,
	`{"question":"a",}`, `{,}`, `{"question" "a"}`, `{"question":"a"`, `{"question":"a`, `{`, `{"`,
	``, ` `, `[]`, `"question"`, `123`, `null`, `true`, `{"question":["a"]}`, `{"question":{}}`,
}

// parsedAskBodies is how many of askBodies, from the first, parse takes.
const parsedAskBodies = 12

// FuzzAskRequestParse: whenever askRequest.parse takes a body, json.Decoder
// decodes the same body without error into the same request.
func FuzzAskRequestParse(f *testing.F) {
	for _, b := range askBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var got askRequest
		if !got.parse(b) {
			return
		}
		var want askRequest
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&want); err != nil {
			t.Fatalf("parse took %q, json.Decoder refuses it: %v", b, err)
		}
		if got != want {
			t.Fatalf("%q: parse gives %+v, json.Decoder %+v", b, got, want)
		}
	})
}

// oracleDecodeJSON is decodeJSON as it was before short asks were read
// whole: json.Decoder straight on the body.
func oracleDecodeJSON(s *Server, w http.ResponseWriter, r *http.Request, v any) bool {
	var err error = &http.MaxBytesError{Limit: maxJSONBody}
	if r.ContentLength <= maxJSONBody {
		err = json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(v)
	}
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	s.writeErr(w, code, fmt.Errorf("bad request body: %w", err))
	return false
}

// failingReader returns its bytes, then err.
type failingReader struct {
	r   io.Reader
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = f.err
	}
	return n, err
}

// TestDecodeJSONMatchesDecoder: for every ask body, declared at its length,
// declared longer or shorter than it is, sent without a length, or cut by a
// read error, decodeJSON answers what json.Decoder on the body answered,
// byte for byte, and decodes the same request.
func TestDecodeJSONMatchesDecoder(t *testing.T) {
	for i, b := range askBodies {
		if took := new(askRequest).parse([]byte(b)); took != (i < parsedAskBodies) {
			t.Errorf("parse(%q) = %v, want %v", b, took, i < parsedAskBodies)
		}
	}
	s := &Server{}
	long := `{"question":"` + strings.Repeat("a", maxAskParse) + `"}`
	bodies := append(append([]string(nil), askBodies...), long, long[:maxAskParse])
	type result struct {
		ok   bool
		code int
		body string
		req  askRequest
	}
	run := func(decode func(*Server, http.ResponseWriter, *http.Request, any) bool, body string, length int64, readErr error) result {
		var src io.Reader = strings.NewReader(body)
		if readErr != nil {
			src = &failingReader{r: src, err: readErr}
		}
		r := httptest.NewRequest("POST", "/api/v1/ask", src)
		r.ContentLength = length
		w := httptest.NewRecorder()
		var req askRequest
		ok := decode(s, w, r, &req)
		return result{ok, w.Code, w.Body.String(), req}
	}
	for _, body := range bodies {
		n := int64(len(body))
		for _, c := range []struct {
			length  int64
			readErr error
		}{
			{n, nil}, {n + 3, nil}, {max(n-3, 1), nil}, {-1, nil},
			{n + 3, io.ErrUnexpectedEOF}, {n, errors.New("connection reset")},
		} {
			got := run((*Server).decodeJSON, body, c.length, c.readErr)
			want := run(oracleDecodeJSON, body, c.length, c.readErr)
			if got != want {
				t.Errorf("%.40q, length %d, read error %v:\n got %+v\nwant %+v", body, c.length, c.readErr, got, want)
			}
		}
	}
}
