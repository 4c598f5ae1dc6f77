let clear _ = ()
