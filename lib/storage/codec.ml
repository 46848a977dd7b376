let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))

let get_u16 b off = Bytes.get_uint16_le b off
let set_u16 b off v = Bytes.set_uint16_le b off (v land 0xffff)

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
