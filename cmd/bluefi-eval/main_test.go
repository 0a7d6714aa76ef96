package main

import (
	"slices"
	"sort"
	"testing"
)

func TestParseFigs(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []string // sorted; nil with wantErr
		wantErr bool
	}{
		{in: "timing", want: []string{"timing"}},
		{in: "9,10", want: []string{"10", "9"}},
		{in: " 5b , timing ", want: []string{"5b", "timing"}},
		{in: "all", want: []string{"10", "5b", "5c", "6", "7a", "7b", "7c", "8", "9", "timing"}},
		{in: "all,9", want: []string{"10", "5b", "5c", "6", "7a", "7b", "7c", "8", "9", "timing"}},
		{in: "nope", wantErr: true},
		{in: "9,nope", wantErr: true},
		{in: "", wantErr: true},
		{in: "9,", wantErr: true},
		{in: "Timing", wantErr: true},
	} {
		got, err := parseFigs(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseFigs(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFigs(%q): %v", tc.in, err)
			continue
		}
		var names []string
		for name, on := range got {
			if on {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		if !slices.Equal(names, tc.want) {
			t.Errorf("parseFigs(%q) = %v, want %v", tc.in, names, tc.want)
		}
	}
}
