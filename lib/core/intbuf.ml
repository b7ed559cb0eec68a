type t = {
  mutable data : int array;
  mutable length : int;
}

let create ?(initial_capacity = 64) () =
  { data = Array.make (max 1 initial_capacity) 0; length = 0 }

let length t = t.length

let[@alloc_ok
     "amortized doubling: the backing array grows O(log n) times over a \
      run, steady-state pushes write in place"] push t v =
  if t.length = Array.length t.data then begin
    let bigger = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 bigger 0 t.length;
    t.data <- bigger
  end;
  t.data.(t.length) <- v;
  t.length <- t.length + 1

let get t i =
  if i < 0 || i >= t.length then invalid_arg "Intbuf.get: index out of range";
  t.data.(i)

let clear t = t.length <- 0

let to_array t = Array.sub t.data 0 t.length
