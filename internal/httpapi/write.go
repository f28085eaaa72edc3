package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"dio/internal/ingest"
)

// maxWriteBody bounds a single remote-write request body (before the
// codec's own series/sample limits apply).
const maxWriteBody = 64 << 20

// WithIngest attaches the durable ingest store and mounts the
// remote-write endpoint: POST /api/v1/write accepts the binary
// (application/x-dio-write) and JSON codecs, appends through the WAL, and
// acknowledges only after the batch is durable.
func WithIngest(store *ingest.Store) Option {
	return func(s *Server) {
		s.ingest = store
		s.mux.HandleFunc("POST /api/v1/write", s.handleWrite)
	}
}

// writeResponse is the POST /api/v1/write accounting envelope.
type writeResponse struct {
	Status     string `json:"status"`
	Appended   int    `json:"appended"`
	OutOfOrder int    `json:"outOfOrder"`
	Duplicate  int    `json:"duplicate"`
}

func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	contentType := r.Header.Get("Content-Type")
	if i := strings.IndexByte(contentType, ';'); i >= 0 {
		contentType = strings.TrimSpace(contentType[:i])
	}
	st, err := s.ingest.Push(http.MaxBytesReader(w, r.Body, maxWriteBody), contentType)
	if err != nil {
		// A failed push is NOT durable: the client must not assume it landed.
		code, what := http.StatusInternalServerError, "append failed"
		if errors.Is(err, ingest.ErrBadWritePayload) {
			code, what = http.StatusBadRequest, "bad write request"
		}
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		s.writeErr(w, code, fmt.Errorf("%s: %w", what, err))
		return
	}
	s.writeJSON(w, http.StatusOK, writeResponse{
		Status:     "success",
		Appended:   st.Appended,
		OutOfOrder: st.OutOfOrder,
		Duplicate:  st.Duplicate,
	})
}
