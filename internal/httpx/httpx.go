// Package httpx is the HTTP plumbing shared by the single-node
// service layer and the cluster router: body limits, content-type
// detection, the ingest body decoder (ingest.go), error→status
// mapping, and JSON replies. The two layers are the same wire surface
// reached by different paths (the cluster router forwards to the
// service's leaf ingest), so their limits, decoding and mappings must
// never drift apart — they live here once.
package httpx

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
)

const (
	// MaxBodyBytes bounds any request body (key batches, envelopes): a
	// merge of a large sketch fits comfortably; unbounded uploads do
	// not.
	MaxBodyBytes = 64 << 20
	// MaxKeyBytes caps one newline-delimited key; a line longer than
	// this fails the request rather than growing buffers without bound.
	MaxKeyBytes = 1 << 20
	// FrameContentType selects the binary ingest frame body format:
	// length-prefixed docs of pre-hashed uint64 keys (internal/frame).
	FrameContentType = "application/x-knw-frame"
)

// IsJSON reports whether a Content-Type selects the JSON ingest body
// format.
func IsJSON(contentType string) bool {
	return strings.HasPrefix(contentType, "application/json")
}

// IsFrame reports whether a Content-Type selects the binary ingest
// frame body format.
func IsFrame(contentType string) bool {
	return strings.HasPrefix(contentType, FrameContentType)
}

// ReadStatus maps a request-body read failure to a status: oversize
// bodies are 413, every other mid-stream failure (client abort,
// truncated chunked encoding, malformed JSON) is a 400 — always with
// a JSON error body, never a bare 500.
func ReadStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Fail writes a JSON error response.
func Fail(w http.ResponseWriter, status int, err error) {
	Reply(w, status, map[string]any{"error": err.Error()})
}

// Reply writes v as the JSON response body with the given status.
func Reply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
