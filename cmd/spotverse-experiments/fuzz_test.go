package main

import (
	"strings"
	"testing"
)

// FuzzParseFleetFlags drives the -fleet and -fleet-shards validators
// with arbitrary flag text. Neither may panic; every value they accept
// must be positive, and every rejection must carry the usage line. The
// seed corpus lives in testdata/fuzz/FuzzParseFleetFlags.
func FuzzParseFleetFlags(f *testing.F) {
	f.Fuzz(func(t *testing.T, sizes, shards string, parallel uint8) {
		// run() rejects -parallel below 1 before parsing the fleet flags.
		p := int(parallel) + 1

		got, err := parseFleetSizes(sizes)
		if err != nil {
			if !strings.Contains(err.Error(), usageLine) {
				t.Fatalf("parseFleetSizes(%q) error lacks the usage line: %v", sizes, err)
			}
		} else {
			if len(got) != strings.Count(sizes, ",")+1 {
				t.Fatalf("parseFleetSizes(%q) = %v: one size per comma-separated field", sizes, got)
			}
			for _, n := range got {
				if n <= 0 {
					t.Fatalf("parseFleetSizes(%q) accepted non-positive size %d", sizes, n)
				}
			}
		}

		n, err := parseFleetShards(shards, p)
		if err != nil {
			if !strings.Contains(err.Error(), usageLine) {
				t.Fatalf("parseFleetShards(%q, %d) error lacks the usage line: %v", shards, p, err)
			}
			return
		}
		if n <= 0 {
			t.Fatalf("parseFleetShards(%q, %d) accepted non-positive shard count %d", shards, p, n)
		}
		if shards == "" && n != p {
			t.Fatalf("parseFleetShards(\"\", %d) = %d, want the -parallel default", p, n)
		}
	})
}
