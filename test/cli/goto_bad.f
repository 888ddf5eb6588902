      PROGRAM P
      GOTO 99
      END
