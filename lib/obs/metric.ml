module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0
  let incr t = Atomic.incr t
  let add t n = ignore (Atomic.fetch_and_add t n)
  let value t = Atomic.get t
end

module Gauge = struct
  type t = float Atomic.t

  let create () = Atomic.make 0.
  let set t v = Atomic.set t v
  let value t = Atomic.get t
end

module Histogram = struct
  type t = {
    bounds : int array;  (* ascending inclusive upper edges *)
    buckets : int Atomic.t array;  (* length bounds + 1; last = overflow *)
    count : int Atomic.t;
    sum : int Atomic.t;
    minimum : int Atomic.t;  (* max_int when empty *)
    maximum : int Atomic.t;  (* min_int when empty *)
  }

  (* Powers of ten from 1 us to 10 s, in nanoseconds: wide enough for a
     per-step phase (~us) and a full experiment (~s) alike. *)
  let default_bounds =
    [|
      1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000;
      1_000_000_000; 10_000_000_000;
    |]

  let create ?(bounds = default_bounds) () =
    let n = Array.length bounds in
    if n = 0 then invalid_arg "Histogram.create: empty bounds";
    for i = 1 to n - 1 do
      if bounds.(i - 1) >= bounds.(i) then
        invalid_arg "Histogram.create: bounds not strictly ascending"
    done;
    {
      bounds = Array.copy bounds;
      buckets = Array.init (n + 1) (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      sum = Atomic.make 0;
      minimum = Atomic.make max_int;
      maximum = Atomic.make min_int;
    }

  (* monotone CAS: only move the bound in its own direction *)
  let rec update_min a v =
    let cur = Atomic.get a in
    if v < cur && not (Atomic.compare_and_set a cur v) then update_min a v

  let rec update_max a v =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then update_max a v

  (* bounds are few (default 8): a linear scan beats binary search.
     Module-level so [observe] builds no closure over [t]/[v]. *)
  let rec slot t v i =
    if i >= Array.length t.bounds || v <= t.bounds.(i) then i
    else slot t v (i + 1)

  let observe t v =
    ignore (Atomic.fetch_and_add t.buckets.(slot t v 0) 1);
    ignore (Atomic.fetch_and_add t.count 1);
    ignore (Atomic.fetch_and_add t.sum v);
    update_min t.minimum v;
    update_max t.maximum v

  let count t = Atomic.get t.count
  let sum_ns t = Atomic.get t.sum
  let min_ns t = Atomic.get t.minimum
  let max_ns t = Atomic.get t.maximum

  let mean_ns t =
    let n = count t in
    if n = 0 then nan else float_of_int (sum_ns t) /. float_of_int n

  let buckets t =
    Array.init
      (Array.length t.buckets)
      (fun i ->
        let edge =
          if i < Array.length t.bounds then t.bounds.(i) else max_int
        in
        (edge, Atomic.get t.buckets.(i)))
end
