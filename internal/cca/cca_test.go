package cca

import "testing"

func TestNamesListsAll(t *testing.T) {
	names := Names()
	if len(names) != 5 {
		t.Fatalf("Names = %v", names)
	}
	for _, n := range names {
		if _, ok := ByName(n); !ok {
			t.Fatalf("listed name %q not resolvable", n)
		}
	}
}
