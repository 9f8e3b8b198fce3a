(* Reno's window rules are AIMD(1, 1/2) exactly: a /. 2.0 and a *. 0.5
   round alike, and 1.0 *. mss is mss. *)
let create () = Aimd.make ~name:"reno" ~a:1.0 ~b:0.5
