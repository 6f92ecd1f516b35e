// Package golden pins run transcripts as SHA-256 digests in a committed JSON
// file of named entries, so code that must keep its transcripts
// byte-identical is checked against recorded output rather than against a
// second implementation kept alive only for comparison.
package golden

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash"
	"io/fs"
	"os"
	"testing"
)

// Check compares the digest in h — a hash of a canonical encoding of the
// run — against the entry named key in the JSON digest file at path. With
// update set it records the digest under key instead, keeping the file's
// other entries; record one package at a time (go test -p 1), since
// several packages share the file.
func Check(t testing.TB, path, key string, h hash.Hash, update bool) {
	t.Helper()
	digest := hex.EncodeToString(h.Sum(nil))
	want := map[string]string{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	case !update || !errors.Is(err, fs.ErrNotExist):
		t.Fatalf("reading %s (record with -update-golden): %v", path, err)
	}
	if update {
		want[key] = digest
		out, err := json.MarshalIndent(want, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, ok := want[key]
	switch {
	case !ok:
		t.Errorf("%s: no digest recorded for %q", path, key)
	case got != digest:
		t.Errorf("%s: digest %s, golden %s", key, digest, got)
	}
}
