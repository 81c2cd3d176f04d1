package kvenc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func encodePairs(pairs [][2]string) []byte {
	var out []byte
	for _, p := range pairs {
		out = AppendPair(out, []byte(p[0]), []byte(p[1]))
	}
	return out
}

func TestIteratorRoundTrip(t *testing.T) {
	in := [][2]string{{"b", "1"}, {"a", "2"}, {"", "empty-key"}, {"c", ""}}
	it := NewIterator(encodePairs(in))
	for i, want := range in {
		k, v, ok := it.Next()
		if !ok || string(k) != want[0] || string(v) != want[1] {
			t.Fatalf("pair %d: %q=%q ok=%v", i, k, v, ok)
		}
	}
	if _, _, ok := it.Next(); ok {
		t.Fatal("iterator did not end")
	}
}

func TestCount(t *testing.T) {
	if Count(nil) != 0 {
		t.Fatal("empty count")
	}
	if Count(encodePairs([][2]string{{"a", "1"}, {"b", "2"}})) != 2 {
		t.Fatal("count 2")
	}
}

func TestSortStream(t *testing.T) {
	in := [][2]string{{"pear", "3"}, {"apple", "1"}, {"mango", "2"}, {"apple", "0"}}
	sorted, n := SortStream(encodePairs(in))
	if n != 4 {
		t.Fatalf("n=%d", n)
	}
	if !IsSorted(sorted) {
		t.Fatal("not sorted")
	}
	// Stability: the two "apple" values keep input order.
	it := NewIterator(sorted)
	k, v, _ := it.Next()
	if string(k) != "apple" || string(v) != "1" {
		t.Fatalf("first: %s=%s", k, v)
	}
	k, v, _ = it.Next()
	if string(k) != "apple" || string(v) != "0" {
		t.Fatalf("second: %s=%s", k, v)
	}
}

func TestSortStreamProperty(t *testing.T) {
	// Sorting any random stream yields a sorted permutation of it.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pairs [][2]string
		for i := 0; i < rng.Intn(50); i++ {
			pairs = append(pairs, [2]string{
				fmt.Sprintf("k%02d", rng.Intn(10)),
				fmt.Sprintf("v%d", i),
			})
		}
		enc := encodePairs(pairs)
		sorted, n := SortStream(enc)
		if n != len(pairs) || !IsSorted(sorted) {
			return false
		}
		// Multiset equality via sorted flat representation.
		flat := func(data []byte) []string {
			var out []string
			it := NewIterator(data)
			for {
				k, v, ok := it.Next()
				if !ok {
					break
				}
				out = append(out, string(k)+"\x00"+string(v))
			}
			sort.Strings(out)
			return out
		}
		a, b := flat(enc), flat(sorted)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMergeStream(t *testing.T) {
	r1, _ := SortStream(encodePairs([][2]string{{"a", "1"}, {"c", "3"}, {"e", "5"}}))
	r2, _ := SortStream(encodePairs([][2]string{{"b", "2"}, {"c", "30"}, {"d", "4"}}))
	merged := MergeStream([][]byte{r1, r2})
	if !IsSorted(merged) {
		t.Fatal("merge output not sorted")
	}
	if Count(merged) != 6 {
		t.Fatalf("count=%d", Count(merged))
	}
	// Stable: r1's "c" before r2's "c".
	var cs []string
	it := NewIterator(merged)
	for {
		k, v, ok := it.Next()
		if !ok {
			break
		}
		if string(k) == "c" {
			cs = append(cs, string(v))
		}
	}
	if len(cs) != 2 || cs[0] != "3" || cs[1] != "30" {
		t.Fatalf("tie order: %v", cs)
	}
}

func TestMergeManyRunsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var runs [][]byte
		var all [][2]string
		for r := 0; r < 1+rng.Intn(8); r++ {
			var pairs [][2]string
			for i := 0; i < rng.Intn(30); i++ {
				p := [2]string{fmt.Sprintf("key%03d", rng.Intn(40)), fmt.Sprintf("r%dv%d", r, i)}
				pairs = append(pairs, p)
				all = append(all, p)
			}
			sorted, _ := SortStream(encodePairs(pairs))
			runs = append(runs, sorted)
		}
		merged := MergeStream(runs)
		if !IsSorted(merged) {
			t.Fatal("merged not sorted")
		}
		if Count(merged) != len(all) {
			t.Fatalf("trial %d: %d vs %d", trial, Count(merged), len(all))
		}
	}
}

func TestMergeGroups(t *testing.T) {
	r1, _ := SortStream(encodePairs([][2]string{{"a", "1"}, {"b", "2"}, {"b", "3"}}))
	r2, _ := SortStream(encodePairs([][2]string{{"b", "4"}, {"c", "5"}}))
	got := map[string][]string{}
	var order []string
	MergeGroups([][]byte{r1, r2}, func(key []byte, vals ValueIter) bool {
		order = append(order, string(key))
		for _, v := range SliceValues(vals) {
			got[string(key)] = append(got[string(key)], string(v))
		}
		return true
	})
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("group order %v", order)
	}
	if fmt.Sprint(got["b"]) != "[2 3 4]" {
		t.Fatalf("b values %v", got["b"])
	}
	if fmt.Sprint(got["a"]) != "[1]" || fmt.Sprint(got["c"]) != "[5]" {
		t.Fatalf("got %v", got)
	}
}

func TestMergeGroupsPartialConsumption(t *testing.T) {
	// A reduce function that stops reading values early must not
	// corrupt the following groups.
	r, _ := SortStream(encodePairs([][2]string{
		{"a", "1"}, {"a", "2"}, {"a", "3"}, {"b", "9"},
	}))
	var keys []string
	MergeGroups([][]byte{r}, func(key []byte, vals ValueIter) bool {
		keys = append(keys, string(key))
		vals.Next() // consume only one value
		return true
	})
	if fmt.Sprint(keys) != "[a b]" {
		t.Fatalf("keys %v", keys)
	}
}

func TestMergeGroupsEarlyStop(t *testing.T) {
	r, _ := SortStream(encodePairs([][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}}))
	var keys []string
	MergeGroups([][]byte{r}, func(key []byte, vals ValueIter) bool {
		keys = append(keys, string(key))
		return len(keys) < 2
	})
	if fmt.Sprint(keys) != "[a b]" {
		t.Fatalf("keys %v", keys)
	}
}

func TestMergeGroupsEmpty(t *testing.T) {
	called := false
	MergeGroups(nil, func([]byte, ValueIter) bool { called = true; return true })
	MergeGroups([][]byte{nil, nil}, func([]byte, ValueIter) bool { called = true; return true })
	if called {
		t.Fatal("callback on empty input")
	}
}

func TestMergeGroupsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		var runs [][]byte
		ref := map[string][]string{}
		seq := 0
		for r := 0; r < 1+rng.Intn(5); r++ {
			var pairs [][2]string
			for i := 0; i < rng.Intn(40); i++ {
				k := fmt.Sprintf("k%02d", rng.Intn(12))
				v := fmt.Sprintf("v%d", seq)
				seq++
				pairs = append(pairs, [2]string{k, v})
			}
			sorted, _ := SortStream(encodePairs(pairs))
			runs = append(runs, sorted)
		}
		// Reference: group values of each key across runs, run-major,
		// preserving per-run sorted-stable order.
		for _, run := range runs {
			it := NewIterator(run)
			for {
				k, v, ok := it.Next()
				if !ok {
					break
				}
				ref[string(k)] = append(ref[string(k)], string(v))
			}
		}
		got := map[string][]string{}
		MergeGroups(runs, func(key []byte, vals ValueIter) bool {
			for _, v := range SliceValues(vals) {
				got[string(key)] = append(got[string(key)], string(v))
			}
			return true
		})
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d keys vs %d", trial, len(got), len(ref))
		}
		for k, vs := range ref {
			if fmt.Sprint(got[k]) != fmt.Sprint(vs) {
				t.Fatalf("trial %d key %s: %v vs %v", trial, k, got[k], vs)
			}
		}
	}
}
