package engine

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// fillNonzero sets v to a nonzero value of its kind.
func fillNonzero(t *testing.T, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(name)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Array:
		fillNonzero(t, name, v.Index(0))
	default:
		t.Fatalf("Report.%s: teach fillNonzero the kind %s", name, v.Kind())
	}
}

// TestProfileDropsExactlyTheTrace walks Report by reflection. Every
// field must carry a moves tag, so a new field is placed deliberately:
// held equal everywhere (moves:""), or moved by named kinds and causes.
// Every name in a moves, races or nonzero tag entry must be one the
// comparisons use: a kind (moves only), Disk (nonzero only), or a cause
// Causes can report. With every field nonzero, Profile must zero
// exactly the fields tagged trace, keep every other field as it was,
// and leave the receiver whole.
func TestProfileDropsExactlyTheTrace(t *testing.T) {
	var names []string
	for _, c := range causes {
		names = append(names, c.name)
	}
	kinds := append([]string{Host, Clock, Order, Medium, Trace}, names...)
	tp := reflect.TypeFor[Report]()
	for i := 0; i < tp.NumField(); i++ {
		f := tp.Field(i)
		if _, ok := f.Tag.Lookup("moves"); !ok {
			t.Errorf("Report.%s has no moves tag: name what may move it, or moves:\"\" if nothing may", f.Name)
		}
		check := func(key string, tag, vocab []string) {
			for _, entry := range tag {
				for _, n := range strings.Split(entry, "+") {
					if !slices.Contains(vocab, n) {
						t.Errorf("Report.%s: %s names %q, which no comparison uses", f.Name, key, n)
					}
				}
			}
		}
		check("moves", tag(i, "moves"), kinds)
		check("races", tag(i, "races"), names)
		check("nonzero", tag(i, "nonzero"), append(names, Disk))
	}

	var rep Report
	v := reflect.ValueOf(&rep).Elem()
	for i := 0; i < v.NumField(); i++ {
		fillNonzero(t, tp.Field(i).Name, v.Field(i))
	}
	whole := rep
	p := reflect.ValueOf(*rep.Profile())
	for i := 0; i < v.NumField(); i++ {
		name := tp.Field(i).Name
		switch trace := slices.Contains(tag(i, "moves"), Trace); {
		case trace && !p.Field(i).IsZero():
			t.Errorf("Report.%s is tagged trace but Profile kept it", name)
		case !trace && !reflect.DeepEqual(p.Field(i).Interface(), v.Field(i).Interface()):
			t.Errorf("Report.%s is not tagged trace but Profile changed it", name)
		}
	}
	if diff := ReportDiff(&whole, &rep); diff != "" {
		t.Errorf("Profile changed its receiver's %s", diff)
	}
}
