package core

import (
	"reflect"
	"testing"
	"unsafe"

	"scidive/internal/sip"
)

// frameByteFields walks a type the router ships and returns the path of
// every []byte it can reach: through structs, arrays, slices and
// pointers, stopping at the two leaves that are allowed bytes of their
// own — an owned sip.Message (its Body is the parser's copy, not the
// frame) and shardCtl (the control plane: its snap is a checkpoint blob).
func frameByteFields(root reflect.Type) []string {
	var found []string
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if typ == reflect.TypeOf(sip.Message{}) || typ == reflect.TypeOf(shardCtl{}) {
			return
		}
		switch typ.Kind() {
		case reflect.Struct:
			if seen[typ] {
				return
			}
			seen[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Slice:
			if typ.Elem().Kind() == reflect.Uint8 {
				found = append(found, path)
				return
			}
			walk(path+"[]", typ.Elem())
		case reflect.Array, reflect.Pointer:
			walk(path, typ.Elem())
		}
	}
	walk(root.Name(), root)
	return found
}

// TestShardItemsCarryNoFrameBytes pins "a shard never sees frame bytes"
// by construction: nothing the router queues for a shard, and nothing the
// decode stage hands the router to queue, has a []byte field to alias a
// capture buffer with. The hot item also has a size to keep: a batch of
// 64 is the unit of handoff, and it was 17 KB when an item carried the
// frame, its fragment group and every control field inline.
func TestShardItemsCarryNoFrameBytes(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(shardItem{}), reflect.TypeOf(shippedMsg{}), reflect.TypeOf(decoded{}),
	} {
		for _, path := range frameByteFields(typ) {
			t.Errorf("%s is a []byte: shipped results must not be able to alias a frame", path)
		}
	}
	// The walk does find the bytes where they are supposed to be.
	if got := frameByteFields(reflect.TypeOf(ingDigest{})); !reflect.DeepEqual(got, []string{"ingDigest.frame"}) {
		t.Errorf("walk over ingDigest found %v, want only the fed frame", got)
	}
	if size := unsafe.Sizeof(shardItem{}); size > 128 {
		t.Errorf("unsafe.Sizeof(shardItem{}) = %d, want <= 128", size)
	}
	// The router's per-session shard cache lives in sessionState's padding:
	// the serial engine allocates the same struct, and 352 is its size
	// class (heap_bytes_per_session must not move).
	if size := unsafe.Sizeof(sessionState{}); size > 352 {
		t.Errorf("unsafe.Sizeof(sessionState{}) = %d, want <= 352", size)
	}
}
