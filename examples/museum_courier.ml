(* Barrier-domain scenario (the paper's §4 future work: planar domains
   with communication and mobility barriers). Visitors wander a museum
   whose wings are separated by walls with doorways; their audio-guides
   pass a content update on close contact, but the radio cannot cross
   walls. How do the floor plan and radio range shape dissemination?

   Run with: dune exec examples/museum_courier.exe *)

module Domain = Barriers.Domain
module B = Barriers.Barrier_sim
module Table = Experiments.Table

let median_time ~domain ~radius ~los_blocking =
  let trials = 5 in
  let times =
    Array.init trials (fun trial ->
        let report =
          B.broadcast
            { B.domain; agents = 20; radius; los_blocking; seed = 23; trial;
              max_steps = 500_000 }
        in
        float_of_int report.Mobile_network.Engine.steps)
  in
  Array.sort compare times;
  times.(trials / 2)

let () =
  let side = 36 in
  let grid = Grid.create ~side () in
  Printf.printf "museum update dissemination: 20 visitors on a %dx%d floor\n\n"
    side side;
  let rooms = Domain.rooms grid ~rooms_per_side:3 ~door:2 in
  Printf.printf "floor plan (%% = wall), 3x3 wings with 2-cell doorways:\n%s\n"
    (Render.domain_ascii ~max_width:36 rooms);
  let table =
    Table.create
      ~header:[ "floor plan"; "radio range"; "walls block radio"; "median time" ]
  in
  let add name domain radius los =
    Table.add_row table
      [ name; Table.cell_int radius; Table.cell_bool los;
        Table.cell_float (median_time ~domain ~radius ~los_blocking:los) ]
  in
  let open_floor = Domain.unobstructed grid in
  add "open hall" open_floor 0 false;
  add "3x3 wings" rooms 0 false;
  add "open hall" open_floor 3 false;
  add "3x3 wings" rooms 3 false;
  add "3x3 wings" rooms 3 true;
  Table.render Format.std_formatter table;
  Printf.printf
    "\nWalls slow the contact-only update (the rumor must be walked through\n\
     doorways), a modest radio range buys a lot back, and making the walls\n\
     radio-opaque gives some of it up again — mobility and communication\n\
     barriers compose, but dissemination always completes while the floor\n\
     stays connected.\n"
