(* Growable sample buffers and the order statistics every reported
   metric is made of. Quantiles use Stats.Summary's linear-interpolation
   definition throughout, so a bootstrap replicate and the point
   estimate measure the same thing. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 64 0.; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let d = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len
let to_array t = Array.sub t.data 0 t.len

let quantile t q =
  if t.len = 0 then nan else Stats.Summary.quantile (to_array t) ~q

type summary = {
  n : int;
  value : float;  (** the reported statistic *)
  p25 : float;
  p75 : float;
  ci_lo : float;  (** 95 % percentile-bootstrap interval of [value] *)
  ci_hi : float;
}

(* The [q]-quantile of [t] with its spread and interval. [seed] fixes the
   bootstrap stream, so the interval is a pure function of the sample. *)
let summarize ~seed ~q t =
  let a = to_array t in
  if Array.length a = 0 then
    { n = 0; value = nan; p25 = nan; p75 = nan; ci_lo = nan; ci_hi = nan }
  else
    let ci_lo, ci_hi =
      Stats.Bootstrap.ci (Prng.of_seed seed) a
        ~stat:(fun r -> Stats.Summary.quantile r ~q)
        ()
    in
    {
      n = Array.length a;
      value = Stats.Summary.quantile a ~q;
      p25 = Stats.Summary.quantile a ~q:0.25;
      p75 = Stats.Summary.quantile a ~q:0.75;
      ci_lo;
      ci_hi;
    }

(* A metric measured once per run (a peak, a count): no spread. *)
let single x = { n = 1; value = x; p25 = x; p75 = x; ci_lo = x; ci_hi = x }

(* Every statistic of [s] times [k]. *)
let scale k s =
  { s with value = k *. s.value; p25 = k *. s.p25; p75 = k *. s.p75; ci_lo = k *. s.ci_lo; ci_hi = k *. s.ci_hi }
