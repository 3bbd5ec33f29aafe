package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"traj2hash"
)

// FuzzServeSearchBody posts arbitrary bytes to /search on an index that
// holds one tombstone. Whatever the body, the server must not panic and
// must answer 200, 400, 503 or 504; and a 200 that says complete must
// carry exactly min(k, Len()) results — k being the body's own, or the
// server's default when the body asks for none; the seeds include a
// huge k, which meets the engine's tombstone over-fetch.
func FuzzServeSearchBody(f *testing.F) {
	idx, _ := testIndex(f, traj2hash.Options{})
	if err := idx.Delete(0); err != nil {
		f.Fatal(err)
	}
	const defaultK = 10
	base, _, _ := startServer(f, Config{Index: idx, DefaultTimeout: 5 * time.Second, DefaultK: defaultK})
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(base+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("status %d for body %q: %s", resp.StatusCode, body, reply)
		}
		var sr SearchResponse
		if err := json.Unmarshal(reply, &sr); err != nil {
			t.Fatalf("200 reply %q: %v", reply, err)
		}
		if !sr.Complete {
			return
		}
		// The server decoded the body this way and accepted it.
		var req SearchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("the server answered 200 to a body it cannot decode: %v", err)
		}
		k := req.K
		if k <= 0 {
			k = defaultK
		}
		if want := min(k, idx.Len()); len(sr.Results) != want {
			t.Fatalf("k %d over %d live items: a complete 200 with %d results, want %d", req.K, idx.Len(), len(sr.Results), want)
		}
	})
}
