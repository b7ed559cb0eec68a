type active = {
  capacity : int;
  columns : string array;  (* data columns; "step" is implicit column 0 *)
  mutable steps : int array;  (* step number per retained row *)
  mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array2.t;
      (* columns × allocated rows; c_layout keeps each column contiguous.
         Both buffers start small and double on demand up to [capacity],
         so a large capacity costs memory only for the rows recorded. *)
  staging : int array;  (* one slot per column, written by [stage] *)
  mutable count : int;
  mutable stride : int;  (* always a power of two *)
}

type t = Nil | Active of active
type col = int

let null = Nil
let default_capacity = 1024
let initial_rows = 64
let schema = "mobisim-series/1"

let create ?(capacity = default_capacity) ~columns () =
  if capacity < 2 then invalid_arg "Series.create: capacity < 2";
  if columns = [] then invalid_arg "Series.create: no columns";
  List.iteri
    (fun i name ->
      if String.equal name "step" then
        invalid_arg "Series.create: \"step\" is implicit";
      List.iteri
        (fun j other ->
          if j < i && String.equal name other then
            invalid_arg ("Series.create: duplicate column " ^ name))
        columns)
    columns;
  let columns = Array.of_list columns in
  let ncols = Array.length columns in
  let rows = min capacity initial_rows in
  Active
    {
      capacity;
      columns;
      steps = Array.make rows 0;
      data = Bigarray.Array2.create Bigarray.int Bigarray.c_layout ncols rows;
      staging = Array.make ncols 0;
      count = 0;
      stride = 1;
    }

let enabled = function Nil -> false | Active _ -> true

let col t name =
  match t with
  | Nil -> 0
  | Active a -> (
      let rec find i =
        if i >= Array.length a.columns then
          invalid_arg ("Series.col: unknown column " ^ name)
        else if String.equal a.columns.(i) name then i
        else find (i + 1)
      in
      find 0)

let stage t c v =
  match t with Nil -> () | Active a -> a.staging.(c) <- v

let want t ~step =
  match t with Nil -> false | Active a -> step mod a.stride = 0

(* Double the row buffers (capped at [capacity]), keeping the [count]
   rows recorded so far. Allocates, but at most O(log capacity) times
   per recorder, never on a commit between doublings. *)
let grow a =
  let rows = min a.capacity (2 * Array.length a.steps) in
  let steps = Array.make rows 0 in
  Array.blit a.steps 0 steps 0 a.count;
  let data =
    Bigarray.Array2.create Bigarray.int Bigarray.c_layout
      (Array.length a.columns) rows
  in
  for c = 0 to Array.length a.columns - 1 do
    Bigarray.Array1.blit
      (Bigarray.Array1.sub (Bigarray.Array2.slice_left a.data c) 0 a.count)
      (Bigarray.Array1.sub (Bigarray.Array2.slice_left data c) 0 a.count)
  done;
  a.steps <- steps;
  a.data <- data

(* Append the staged row (growing the buffers first when they are
   full), then — at capacity — drop every other row. Kept rows sit at
   the even indices, i.e. at steps that are multiples of the doubled
   stride, so row [i] always holds step [i * stride] and the retained
   series stays uniformly spaced from step 0. *)
let[@unsafe_invariant
     "c < ncols = Array2.dim1 data; row < Array2.dim2 data because [grow] \
      runs whenever count reaches dim2; halving runs only at count = \
      capacity, when dim2 = capacity, and i < 2*i <= 2*(kept-1) < \
      capacity"] commit t ~step =
  match t with
  | Nil -> ()
  | Active a ->
      if step mod a.stride = 0 then begin
        let ncols = Array.length a.columns in
        let row = a.count in
        if row = Array.length a.steps then grow a;
        a.steps.(row) <- step;
        for c = 0 to ncols - 1 do
          Bigarray.Array2.unsafe_set a.data c row a.staging.(c)
        done;
        a.count <- row + 1;
        if a.count = a.capacity then begin
          let kept = (a.capacity + 1) / 2 in
          for i = 1 to kept - 1 do
            a.steps.(i) <- a.steps.(2 * i);
            for c = 0 to ncols - 1 do
              Bigarray.Array2.unsafe_set a.data c i
                (Bigarray.Array2.unsafe_get a.data c (2 * i))
            done
          done;
          a.count <- kept;
          a.stride <- a.stride * 2
        end
      end

let rows = function Nil -> 0 | Active a -> a.count
let stride = function Nil -> 1 | Active a -> a.stride

let columns = function
  | Nil -> []
  | Active a -> "step" :: Array.to_list a.columns

let column t name =
  match t with
  | Nil -> [||]
  | Active a ->
      if String.equal name "step" then Array.sub a.steps 0 a.count
      else
        let c = col t name in
        Array.init a.count (fun i -> Bigarray.Array2.get a.data c i)

(* --- export ---------------------------------------------------------------- *)

let header_members ?meta t =
  let base =
    [
      ("schema", Json.String schema);
      ( "columns",
        Json.List (List.map (fun c -> Json.String c) (columns t)) );
      ("stride", Json.Int (stride t));
      ("rows", Json.Int (rows t));
    ]
  in
  match meta with
  | None | Some [] -> base
  | Some m -> base @ [ ("meta", Json.Assoc m) ]

let row_json t i =
  match t with
  | Nil -> Json.List []
  | Active a ->
      Json.List
        (Json.Int a.steps.(i)
        :: List.init (Array.length a.columns) (fun c ->
               Json.Int (Bigarray.Array2.get a.data c i)))

let export_string ?meta t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Json.to_string (Json.Assoc (header_members ?meta t)));
  Buffer.add_char buf '\n';
  for i = 0 to rows t - 1 do
    Buffer.add_string buf (Json.to_string (row_json t i));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* --- validation ------------------------------------------------------------ *)

let validate json =
  let ( let* ) = Result.bind in
  let error fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let* () =
    match json with
    | Json.Assoc _ -> Ok ()
    | _ -> Error "series is not a JSON object"
  in
  let* () =
    match Json.member "schema" json with
    | Some (Json.String s) when String.equal s schema -> Ok ()
    | Some (Json.String s) -> error "unknown schema %S (want %S)" s schema
    | _ -> error "missing %S field" "schema"
  in
  let* ncols =
    match Json.member "columns" json with
    | Some (Json.List (Json.String "step" :: rest)) ->
        let rec strings = function
          | [] -> Ok (1 + List.length rest)
          | Json.String _ :: tl -> strings tl
          | _ -> error "\"columns\" has a non-string entry"
        in
        strings rest
    | Some (Json.List _) -> error "\"columns\" must start with \"step\""
    | _ -> error "missing or malformed \"columns\""
  in
  let* stride =
    match Json.member "stride" json with
    | Some (Json.Int s) when s >= 1 && s land (s - 1) = 0 -> Ok s
    | Some (Json.Int s) -> error "\"stride\" %d is not a positive power of two" s
    | _ -> error "missing or malformed \"stride\""
  in
  let* declared =
    match Json.member "rows" json with
    | Some (Json.Int n) when n >= 0 -> Ok n
    | _ -> error "missing or malformed \"rows\""
  in
  let* () =
    match Json.member "meta" json with
    | None | Some (Json.Assoc _) -> Ok ()
    | Some _ -> error "\"meta\" is not an object"
  in
  match Json.member "data" json with
  | Some (Json.List data) ->
      let* () =
        if List.length data = declared then Ok ()
        else error "\"rows\" is %d but data has %d rows" declared
               (List.length data)
      in
      let check (acc : (int, string) result) row =
        let* prev = acc in
        match row with
        | Json.List cells ->
            if List.length cells <> ncols then
              error "row has %d cells, want %d" (List.length cells) ncols
            else
              let* step =
                match cells with
                | Json.Int s :: _ -> Ok s
                | _ -> Error "row step is not an integer"
              in
              let* () =
                if List.for_all (function Json.Int _ -> true | _ -> false) cells
                then Ok ()
                else Error "row has a non-integer cell"
              in
              let* () =
                if step > prev then Ok ()
                else error "step %d does not increase (previous %d)" step prev
              in
              if step mod stride = 0 then Ok step
              else error "step %d is not a multiple of stride %d" step stride
        | _ -> Error "row is not an array"
      in
      let* _last = List.fold_left check (Ok min_int) data in
      Ok ()
  | Some _ -> error "\"data\" is not an array"
  | None -> error "missing %S field" "data"

let parse text =
  let finish json =
    match validate json with
    | Ok () -> Ok json
    | Error msg -> Error ("invalid series: " ^ msg)
  in
  let whole = Json.parse text in
  match whole with
  | Ok json when Option.is_some (Json.member "data" json) -> finish json
  | _ -> (
      (* NDJSON form: header object on line 1, one row array per line. A
         zero-row export is the header line alone, which also parses as
         a whole document — hence the ["data"] test above. Rows parse
         one line at a time, so a bad row's diagnostic names its line
         in the file, not column C of a one-line document. *)
      let header, rows =
        match
          String.split_on_char '\n' text
          |> List.mapi (fun i line -> (i + 1, line))
          |> List.filter (fun (_, line) -> String.trim line <> "")
        with
        | [] -> ("", [])
        | (_, header) :: rows -> (header, rows)
      in
      match (Json.parse header, whole) with
      | Ok (Json.Assoc members), _ ->
          let ( let* ) = Result.bind in
          let* data =
            List.fold_left
              (fun acc (line_no, line) ->
                let* acc = acc in
                match Pjson.parse line with
                | Ok row -> Ok (Json.strip row :: acc)
                | Error (pos, msg) ->
                    Error
                      ("invalid series row: "
                      ^ Pjson.format { pos with Pjson.line = line_no }
                          ("JSON parse error: " ^ msg)))
              (Ok []) rows
          in
          finish (Json.Assoc (members @ [ ("data", Json.List (List.rev data)) ]))
      | _, Ok json -> finish json
      | Ok _, Error _ -> Error "series header line is not a JSON object"
      | Error _, Error whole_err -> Error whole_err)

(* --- ambient series directory --------------------------------------------- *)

(* Like [Sink.ambient]/[Tracer.ambient]: the experiment fan-out sits
   under signatures that cannot thread a recorder through every layer,
   so [--series-dir] installs a process-wide destination and the sweep
   helpers record trial 0 of each cell into it. [None] means disabled. *)
let ambient_dir_ref = Atomic.make (None : string option)
let set_ambient_dir d = Atomic.set ambient_dir_ref d
let ambient_dir () = Atomic.get ambient_dir_ref
