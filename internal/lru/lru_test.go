package lru

import "testing"

// op is one cache call: add k=v when v > 0, get k otherwise.
type op struct {
	k string
	v int
}

func TestCache(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		max  int
		ops  []op
		want map[string]int // survivors and their values
		gone []string       // every other key the case touched
	}{
		{
			name: "evicts in insertion order without gets",
			max:  2,
			ops:  []op{{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}},
			want: map[string]int{"c": 3, "d": 4},
			gone: []string{"a", "b"},
		},
		{
			name: "get refreshes recency",
			max:  2,
			ops:  []op{{"a", 1}, {"b", 2}, {"a", 0}, {"c", 3}},
			want: map[string]int{"a": 1, "c": 3},
			gone: []string{"b"},
		},
		{
			name: "missed get changes nothing",
			max:  2,
			ops:  []op{{"a", 1}, {"b", 2}, {"z", 0}, {"c", 3}},
			want: map[string]int{"b": 2, "c": 3},
			gone: []string{"a", "z"},
		},
		{
			name: "add overwrites and refreshes without growing",
			max:  2,
			ops:  []op{{"a", 1}, {"b", 2}, {"a", 9}, {"c", 3}},
			want: map[string]int{"a": 9, "c": 3},
			gone: []string{"b"},
		},
		{
			name: "bound of one keeps the newest",
			max:  1,
			ops:  []op{{"a", 1}, {"b", 2}, {"b", 0}, {"c", 3}},
			want: map[string]int{"c": 3},
			gone: []string{"a", "b"},
		},
		{
			name: "under the bound nothing is evicted",
			max:  4,
			ops:  []op{{"a", 1}, {"b", 2}, {"c", 3}},
			want: map[string]int{"a": 1, "b": 2, "c": 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int](tc.max)
			for _, o := range tc.ops {
				if o.v > 0 {
					c.Add(o.k, o.v)
				} else {
					c.Get(o.k)
				}
			}
			for k, v := range tc.want {
				if got, ok := c.Get(k); !ok || got != v {
					t.Errorf("Get(%q) = %d, %v; want %d, true", k, got, ok, v)
				}
			}
			for _, k := range tc.gone {
				if got, ok := c.Get(k); ok {
					t.Errorf("Get(%q) = %d, true; want evicted", k, got)
				}
			}
		})
	}
}
