package service

import (
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"perfstacks/internal/export"
	"perfstacks/internal/resultcache"
)

// maxPeerEntryBytes bounds a peer fill body: the entry frame around a
// result payload. Matches the cluster reader's cap.
const maxPeerEntryBytes = 64 << 20

// requirePeerAuth gates the cluster-internal endpoints behind the ring's
// shared bearer token. The fill path must trust the sender's key↔payload
// binding — the key derives from the canonical request config, which the
// payload alone cannot reproduce, so the server cannot recompute it — and
// that trust is only sound for authenticated ring members. Everything
// else that can reach the port gets a 403 and a counter.
func (s *Server) requirePeerAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(tok), []byte(s.peerToken)) != 1 {
			s.metrics.peerServed[peerAuthRejected].Add(1)
			writeError(w, http.StatusForbidden, errors.New("peer endpoint requires the ring's bearer token"))
			return
		}
		h(w, r)
	}
}

// parsePeerKey decodes the {key} path element (64 hex chars).
func parsePeerKey(r *http.Request) (resultcache.Key, error) {
	var k resultcache.Key
	raw := r.PathValue("key")
	b, err := hex.DecodeString(raw)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("bad key %q: want %d hex characters", raw, 2*len(k))
	}
	copy(k[:], b)
	return k, nil
}

// handlePeerGet serves GET /v1/peer/result/{key}: the cluster-internal
// read path. It consults the local cache tiers only — a peer fetch must
// never trigger a simulation here (the requester owns the degradation
// decision; recursive fills would let one request fan work across the
// ring). The body is the verified entry frame (magic, digest, payload), so
// the requester re-verifies with the same path a local disk read uses.
func (s *Server) handlePeerGet(w http.ResponseWriter, r *http.Request) {
	k, err := parsePeerKey(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	payload, ok := s.cache.Get(k)
	if !ok {
		s.metrics.peerServed[peerGetMiss].Add(1)
		w.WriteHeader(http.StatusNotFound)
		return
	}
	s.metrics.peerServed[peerGetHit].Add(1)
	frame := resultcache.EncodeEntry(payload)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

// handlePeerPut serves PUT /v1/peer/result/{key}: the cluster-internal
// fill path, used by a non-owner that simulated a key this node owns. The
// route is registered only on clustered nodes and sits behind
// requirePeerAuth — the key↔payload binding is the authenticated sender's
// responsibility. The body still re-verifies through the corrupted-entry
// path before a byte of it is stored, and must decode as a versioned
// result — a corrupt or garbage fill is rejected, never cached.
func (s *Server) handlePeerPut(w http.ResponseWriter, r *http.Request) {
	k, err := parsePeerKey(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxPeerEntryBytes)
	frame, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading fill body: %v", err))
		return
	}
	payload, err := resultcache.DecodeEntry(frame)
	if err != nil {
		s.metrics.peerServed[peerFillRejected].Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, _, err := export.DecodeResult(payload); err != nil {
		s.metrics.peerServed[peerFillRejected].Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("fill is not a decodable result: %v", err))
		return
	}
	if err := s.cache.Put(k, payload); err != nil {
		// A full disk degrades the fill to memory-only, same as a local
		// simulation's store; the fill still succeeded.
		s.logf("simd: peer fill %s: %v", k, err)
	}
	s.metrics.peerServed[peerFill].Add(1)
	w.WriteHeader(http.StatusNoContent)
}
