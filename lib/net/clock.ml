type t = { mutable now : int }

let create () = { now = 0 }

let now t = t.now

let advance t n =
  if n < 0 then invalid_arg "Clock.advance";
  t.now <- t.now + n

let tick t = advance t 1

let fn t () = now t
