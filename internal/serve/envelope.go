package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"kbtable/internal/api"
)

// The request and response envelope every /v1 handler — this package's
// and internal/cluster's leg endpoints — goes through.

// WriteJSON writes v as the JSON body of a status response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the structured error envelope: a stable machine
// code (api.Code*) plus human-readable detail.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, api.ErrorResponse{Error: api.ErrorBody{Code: code, Message: msg}})
}

// writeShed writes the 429 shed envelope with its retry hint in both
// the Retry-After header (seconds) and the body (milliseconds).
func writeShed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	WriteJSON(w, http.StatusTooManyRequests, api.ErrorResponse{
		Error: api.ErrorBody{Code: api.CodeShed, Message: msg, RetryAfterMS: 1000},
	})
}

func handleNotFound(w http.ResponseWriter, r *http.Request) {
	WriteError(w, http.StatusNotFound, api.CodeNotFound,
		fmt.Sprintf("no such endpoint %q (the API lives under /%s)", r.URL.Path, api.Version))
}

// DecodePost is the preamble of every POST endpoint: the method check,
// the JSON content-type check, and the decode of a body of at most limit
// bytes into the request struct. It returns false after writing the
// error envelope.
func DecodePost(w http.ResponseWriter, r *http.Request, limit int64, into any) bool {
	return acceptPost(w, r) && decodeBody(w, r, limit, into)
}

// acceptPost rejects anything but a POST whose declared Content-Type is
// JSON (an absent header is accepted for curl-friendliness).
func acceptPost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "POST only")
		return false
	}
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return true
	}
	mt := strings.TrimSpace(strings.ToLower(strings.SplitN(ct, ";", 2)[0]))
	if mt == "application/json" || strings.HasSuffix(mt, "+json") {
		return true
	}
	WriteError(w, http.StatusUnsupportedMediaType, api.CodeBadRequest,
		fmt.Sprintf("unsupported content type %q: use application/json", ct))
	return false
}

func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}
