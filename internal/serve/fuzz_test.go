package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzScanJournal replays arbitrary journal bytes. scanJournal must not
// panic, the intact prefix it reports must be exactly the records it
// returned, and replay must stop at the first bad frame: the line after
// the prefix is unterminated or does not decode.
func FuzzScanJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "j.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	req := RunRequest{Suite: "quick", Experiments: []string{"2"}}
	for _, e := range []Entry{
		{T: recSubmit, ID: "job-0001", At: at, Req: &req},
		{T: recStart, ID: "job-0001", At: at.Add(time.Second)},
		{T: recDone, ID: "job-0001", At: at.Add(time.Minute), State: StateDone, SHA: "abc"},
	} {
		if err := j.Append(e); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(intact)
	for _, tail := range []string{
		`00000000 {"t":"start","id":"job-0002`,
		"deadbeef {\"t\":\"start\",\"id\":\"job-0002\"}\n",
		"\x00\x17garbage\n",
	} {
		f.Add(append(append([]byte(nil), intact...), tail...))
	}
	f.Add(intact[:len(intact)-7])

	f.Fuzz(func(t *testing.T, b []byte) {
		entries, good := scanJournal(b)
		if good < 0 || good > int64(len(b)) {
			t.Fatalf("intact prefix %d outside [0, %d]", good, len(b))
		}
		prefix := b[:good]
		if n := bytes.Count(prefix, []byte{'\n'}); n != len(entries) {
			t.Fatalf("intact prefix holds %d lines, replayed %d entries", n, len(entries))
		}
		if good > 0 && prefix[good-1] != '\n' {
			t.Fatalf("intact prefix ends mid-line at %d", good)
		}
		if nl := bytes.IndexByte(b[good:], '\n'); nl >= 0 {
			if _, ok := decodeRecord(b[good : good+int64(nl)]); ok {
				t.Fatalf("replay stopped at %d before an intact frame", good)
			}
		}
	})
}

// FuzzRunRequest posts arbitrary bodies to /v1/runs. Every body must be
// answered 400 (rejected) or 202 (accepted) — never a 5xx, never a
// panic. Accepted jobs are not run.
func FuzzRunRequest(f *testing.F) {
	for _, req := range []RunRequest{
		tinyRequest(),
		{Suite: "publication"},
		{Suite: "quick", Experiments: []string{"fig99"}},
		{Suite: "quick", Threads: []int{0}},
		{Suite: "quick", TimeoutSeconds: -1},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"suite":`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		srv.run = func(*job) {}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest && rec.Code != http.StatusAccepted {
			t.Fatalf("POST /v1/runs %q = %d %s", body, rec.Code, rec.Body)
		}
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}
