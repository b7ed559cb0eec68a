(** Terminal scatter plots — the "figures" companion to {!Table}.

    Experiments attach these to their results so that a reproduction
    run ([mobisim exp]) regenerates not only the paper-style tables but also the log-log
    figures one would plot from them (scaling laws read as straight
    lines of markers). Pure text; no plotting dependency exists in the
    sealed environment. *)

type series = {
  label : string;
  marker : char;
  points : (float * float) list;
}

val render :
  ?width:int -> ?height:int -> ?log_x:bool -> ?log_y:bool -> title:string ->
  x_label:string -> y_label:string -> series list -> string
(** Render the series onto a [width x height] character canvas (defaults
    60 x 20) with axis ranges annotated and one legend line per series.
    With [log_x]/[log_y] (default [true] — scaling laws are the common
    case) the corresponding axis is logarithmic and non-positive
    coordinates are dropped. Overlapping markers from different series
    show the later series. Returns [title + canvas + axis notes +
    legend], newline-terminated.
    @raise Invalid_argument if no series contains a plottable point or
    a dimension is smaller than 2. *)
