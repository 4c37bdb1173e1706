type t = bytes

let create n = Bytes.make ((n + 7) / 8) '\000'
let mem t i = Char.code (Bytes.get t (i / 8)) land (1 lsl (i mod 8)) <> 0

let add t i =
  Bytes.set t (i / 8) (Char.chr (Char.code (Bytes.get t (i / 8)) lor (1 lsl (i mod 8))))

let mark t i =
  let absent = not (mem t i) in
  if absent then add t i;
  absent
