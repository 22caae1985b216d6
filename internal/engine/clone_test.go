package engine

import (
	"fmt"
	"reflect"
	"testing"
)

// fillJob sets every exported field reachable from v to a distinct
// non-zero value: pointers are allocated, slices get two elements. A
// field of a kind it does not know fails the test, so a new field type
// cannot slip past TestCloneCopiesEveryField unfilled.
func fillJob(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillJob(t, p.Elem(), n)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillJob(t, v.Field(i), n)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillJob(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillJob(t, v.Index(i), n)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	default:
		t.Fatalf("fillJob: no rule for a %s field (%s)", v.Kind(), v.Type())
	}
}

// sharedMemory returns the path of the first pointer or slice backing
// array that a and b (equal values of one type) share, or "".
func sharedMemory(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() {
			return ""
		}
		if a.Pointer() == b.Pointer() {
			return path
		}
		return sharedMemory(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if p := sharedMemory(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Slice:
		if a.Len() == 0 {
			return ""
		}
		if a.Pointer() == b.Pointer() {
			return path
		}
		for i := 0; i < a.Len(); i++ {
			if p := sharedMemory(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if p := sharedMemory(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestCloneCopiesEveryField: the typed copy of a job whose every
// exported field (through the scenario file) is set equals the original
// and shares no pointer or backing array with it — so a field added
// later is either copied or fails here, never aliased silently.
func TestCloneCopiesEveryField(t *testing.T) {
	var j Job
	n := 0
	fillJob(t, reflect.ValueOf(&j).Elem(), &n)
	c := clone(&j)
	if !reflect.DeepEqual(&j, c) {
		t.Fatalf("copy differs from the original:\n%+v\n%+v", j, *c)
	}
	if p := sharedMemory(reflect.ValueOf(&j).Elem(), reflect.ValueOf(c).Elem(), "Job"); p != "" {
		t.Fatalf("copy shares %s with the original", p)
	}
}
